"""The columnar statistics tables against the record-at-a-time reference.

``generate_tables`` evaluates table programs over frame batches;
``reference_tables`` is the per-record loop.  Every test here holds them to
one answer: table names and labels, row keys and values to the bit, the
Python type of each value, the row order — or the same exception with the
same message.  Random programs cover every operator, ``bin()`` with field
parameters, int and float literals (0, and past 2**53) and all five
aggregates; random records mix types, miss extras, and carry a vector, a
char and a field that is an int on some records and a float on others.
"""

from __future__ import annotations

import json
import math
import urllib.parse
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.errors import FormatError, StatsError
from repro.query.columnar import batch_from_records
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.utils import stats
from repro.utils.statlang import (
    AGGREGATES,
    Bin,
    BinOp,
    Field,
    Literal,
    Neg,
    Not,
    TableProgram,
)
from repro.utils.stats import (
    exact_rows,
    generate_tables,
    interval_records,
    predefined_program,
    reference_tables,
    source_metadata,
)

OPS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "and", "or")
CORE = ("start", "dura", "node", "cpu", "thread", "type", "bebits", "task")
#: ``task`` as an extra overrides the synthesized field on the records
#: that carry it.
EXTRAS = ("size", "ratio", "seqnos", "name", "mixed", "localStart", "task")

BIG = 1 << 53
ints = st.one_of(
    st.integers(-4, 4),
    st.integers(-(1 << 40), 1 << 40),
    st.sampled_from([BIG, BIG + 1, -BIG - 3, 1 << 62, -(1 << 63)]),
)
floats = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 2.5, -1.25, 1e300, math.inf, -math.inf, float(BIG)]),
    st.floats(-1e6, 1e6, allow_nan=False),
    # A fresh NaN object per record: dict keys tell NaN objects apart.
    st.builds(float, st.just("nan")),
)
EXTRA_VALUES = {
    "size": ints,
    "ratio": floats,
    "seqnos": st.lists(st.integers(0, 9), max_size=3),
    "name": st.text("ab", max_size=2),
    "mixed": st.one_of(st.integers(-3, 3), st.floats(-3, 3)),
    "localStart": st.integers(0, 1 << 60),
    "task": st.integers(-1, 9),
}


@st.composite
def records(draw, extras=EXTRAS):
    return IntervalRecord(
        draw(st.sampled_from([0, 1, 2, IntervalType.CLOCKPAIR])),
        draw(st.sampled_from(list(BeBits))),
        draw(st.one_of(st.integers(0, 10**6), st.integers(0, 1 << 61))),
        draw(st.one_of(st.integers(0, 10**4), st.integers(0, 1 << 61))),
        draw(st.integers(0, 3)),
        draw(st.integers(0, 2)),
        draw(st.integers(0, 3)),
        draw(st.fixed_dictionaries({}, optional={n: EXTRA_VALUES[n] for n in extras})),
    )


literals = st.one_of(
    st.sampled_from([0, 1, 2, 3, 7, BIG, BIG + 1, 1 << 63, 0.0, 0.5, 2.0, float(BIG), 1e18]),
    st.integers(0, 100),
    st.floats(0, 100),
).map(Literal)
#: Literals no operation can fail on: no zero divisor, nothing past 2**53.
tame_literals = st.one_of(
    st.sampled_from([1, 2, 3, 7, 0.5, 2.0]), st.integers(1, 100), st.floats(0.25, 100),
).map(Literal)


def expressions(fields, literals=literals, wild=True):
    leaves = st.one_of(st.sampled_from(fields).map(Field), literals)
    field = st.sampled_from(fields).map(Field)

    def extend(inner):
        ops = OPS if wild else tuple(op for op in OPS if op != "/")
        nodes = [
            st.builds(BinOp, st.sampled_from(ops), inner, inner),
            st.builds(Not, inner),
            st.builds(Neg, inner),
            # Mostly well-formed bins, parameters from literals or fields.
            st.builds(
                Bin, inner, st.sampled_from([0, 0.0, -1]).map(Literal),
                st.one_of(st.sampled_from([1, 3.5, 1e6, BIG]).map(Literal),
                          field if wild else st.nothing()),
                st.one_of(st.integers(1, 9).map(Literal), field if wild else st.nothing()),
            ),
        ]
        if wild:
            nodes.append(st.builds(Bin, inner, inner, inner, inner))
        else:
            nodes.append(st.builds(BinOp, st.just("/"), inner, tame_literals))
        return st.one_of(nodes)

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def programs(draw, expr=expressions(CORE + EXTRAS)):
    tables = []
    for t in range(draw(st.integers(1, 3))):
        xs = draw(st.lists(expr, min_size=1, max_size=3))
        ys = draw(st.lists(st.tuples(expr, st.sampled_from(AGGREGATES)),
                           min_size=1, max_size=3))
        tables.append(TableProgram(
            f"t{t}",
            draw(st.none() | expr),
            tuple((f"x{i}", e) for i, e in enumerate(xs)),
            tuple((f"y{i}", e, agg) for i, (e, agg) in enumerate(ys)),
        ))
    return tables


class Threads:
    """A thread table whose lookups fail for some threads (task -1)."""

    def lookup(self, node, thread):
        if (node + thread) % 3 == 0:
            raise FormatError("no such thread")
        return SimpleNamespace(mpi_task=node * 4 + thread)


def outcome(generate, records, program, **kwargs):
    try:
        tables = generate(records, program, **kwargs)
    except Exception as exc:  # the reference raises TypeError, ValueError, ...
        return ("raised", type(exc), str(exc))
    return [(t.name, t.x_labels, t.y_labels, exact_rows(t)) for t in tables]


def batched(records, cuts):
    """``records`` as batches cut at ``cuts``."""
    bounds = [0, *sorted(cuts), len(records)]
    chunks = [records[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    return [batch_from_records(c) for c in chunks]


def assert_parity(records, program, cuts=(), **kwargs):
    want = outcome(reference_tables, records, program, **kwargs)
    assert outcome(generate_tables, batched(records, cuts), program, **kwargs) == want
    assert outcome(generate_tables, batched(records, ()), program, **kwargs) == want
    return want


RATES = [1e9, 1e6, 2.5, 1000, 3, -7, 0, 0.0]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_random_programs_match_the_reference(data):
    recs = data.draw(st.lists(records(), max_size=30))
    program = data.draw(programs())
    cuts = data.draw(st.lists(st.integers(0, len(recs)), max_size=6))
    assert_parity(recs, program, cuts,
                  ticks_per_sec=data.draw(st.sampled_from(RATES)),
                  thread_table=data.draw(st.sampled_from([None, Threads()])))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_numeric_programs_match_the_reference(data):
    """Numbers only (no vector, char or mixed field), tame literals, a
    nonzero rate: most batches take the columns, not the fallback."""
    numeric = ("size", "ratio", "localStart")
    recs = data.draw(st.lists(records(numeric), min_size=1, max_size=40))
    program = data.draw(programs(expressions(CORE + numeric, tame_literals, wild=False)))
    cuts = data.draw(st.lists(st.integers(0, len(recs)), max_size=4))
    assert_parity(recs, program, cuts, ticks_per_sec=data.draw(st.sampled_from(RATES[:5])),
                  thread_table=Threads())


def rec(itype=1, start=0, dura=100, node=0, **extra):
    return IntervalRecord(itype, BeBits.COMPLETE, start, dura, node, 0, 0, extra)


def table(text):
    return stats.parse_program(text)


class TestExactness:
    def test_sum_is_sequential_across_batches(self):
        # Pairwise summation adds the small values to each other before the
        # big one and rounds differently; the loop adds them one by one.
        values = [1e16] + [1.0] * 63 + [3.0, -1e16] + [0.1] * 31
        assert math.fsum(values) != sum(values)
        assert np.add.reduce(np.array(values)) != sum(values)
        recs = [rec(size=v) for v in values]
        program = table('table name=s x=("n", node) y=("s", size, sum) y=("a", size, avg)')
        want = assert_parity(recs, program, cuts=(5, 17, 40, 41, 90))
        assert want[0][3] == [("(0,)", repr((0.0 + sum(values), sum(values) / len(values))))]

    def test_extremes_keep_the_first_row_and_its_type(self):
        # -0.0 == 0.0: the first extreme row's own value stays, within a
        # batch and across batches; a comparison's extreme is a bool.
        recs = [rec(ratio=-0.0), rec(ratio=0.0), rec(ratio=0.0, node=1),
                rec(ratio=-0.0, node=1), rec(ratio=0.0, node=1)]
        program = table('table name=m x=("n", node) y=("lo", ratio, min) '
                        'y=("hi", ratio, max) y=("b", ratio < 1, max)')
        for cuts in ((), (1, 4)):
            want = assert_parity(recs, program, cuts)
            assert want[0][3] == [("(0,)", "(-0.0, -0.0, True)"), ("(1,)", "(0.0, 0.0, True)")]

    def test_int64_overflow_is_exact(self):
        recs = [rec(size=1 << 62), rec(size=(1 << 62) + 5)]
        program = table('table name=o x=("n", node) y=("s", size + size, max) '
                        'y=("p", size * 4, min) y=("m", 0 - size - size, min)')
        want = assert_parity(recs, program)
        assert want[0][3] == [("(0,)", repr((2**63 + 10, 2**64, -(2**63) - 10)))]

    def test_nan_keys_stay_apart(self):
        # Each decoded NaN is its own dict key: three NaN rows, three rows.
        recs = [rec(ratio=float("nan")) for _ in range(3)] + [rec(ratio=1.5)]
        program = table('table name=k x=("r", ratio) y=("n", dura, count)')
        want = assert_parity(recs, program, cuts=(2,))
        assert len(want[0][3]) == 4

    def test_int_float_keys_merge_across_batches(self):
        # 1 and 1.0 are one dict key: the first row's form is kept.
        recs = [rec(mixed=1), rec(mixed=1.0), rec(mixed=-0.0), rec(mixed=0)]
        program = table('table name=k x=("m", mixed) y=("n", dura, count)')
        want = assert_parity(recs, program, cuts=(1, 2))
        assert [k for k, _ in want[0][3]] == ["(1,)", "(-0.0,)"]

    @pytest.mark.parametrize("text", [
        # float(2**53 + 1) == 2**53: NumPy would call them equal, Python not.
        'table name=d x=("n", node) y=("c", size == 9007199254740992.0, max)',
        'table name=d x=("q", size / node) y=("r", size * 0.5, sum)',
    ])
    def test_ints_past_2_53_meet_floats_exactly(self, text):
        recs = [rec(size=(1 << 60) + 1, node=3), rec(size=BIG + 1, node=7)]
        assert_parity(recs, table(text))

    def test_errors_match(self):
        recs = [rec(size=4, node=0), rec(size=4, node=2)]
        for text in (
            'table name=e x=("q", size / node) y=("n", dura, count)',
            'table name=e x=("b", bin(size, 0, node, 3)) y=("n", dura, count)',
            'table name=e x=("b", bin(size, 0, 10, node)) y=("n", dura, count)',
        ):
            (_, kind, message) = assert_parity(recs, table(text), cuts=(1,))
            assert kind is StatsError, message

    def test_condition_guards_a_zero_divisor(self, monkeypatch):
        # The divisor is zero only where the condition fails, where the row
        # loop never divides: the batches stay on columns.
        recs = [rec(size=4, node=n) for n in (0, 1, 2, 0, 4)]
        program = table(
            'table name=g condition=(node > 0) x=("q", size / node) y=("s", 1 / node, sum)'
        )
        want = outcome(reference_tables, recs, program)
        monkeypatch.setattr(stats, "_row_loop", None)  # any fallback would call it
        assert outcome(generate_tables, batched(recs, (2,)), program) == want

    def test_missing_extras_skip_rows(self):
        recs = [rec(size=1), rec(), rec(size=2, ratio=0.5), rec(ratio=1.5)]
        program = table('table name=x x=("s", size) y=("r", ratio, sum) '
                        'table name=y x=("n", node) y=("s", size * 2, max)')
        assert_parity(recs, program, cuts=(1, 3))


class TestNonNumericFields:
    """A vector or char value reaching arithmetic, an ordering comparison,
    a sum/avg/min/max or (a vector) an x key is a StatsError naming the
    field, on both paths; counting it and char keys keep working."""

    RECS = [rec(seqnos=[1, 2], name="ab"), rec(), rec(seqnos=[3], name="c")]

    @pytest.mark.parametrize("text, message", [
        ('table name=v x=("s", seqnos) y=("n", dura, count)',
         "field 'seqnos' (line 1, column 22) holds a vector value, which cannot be an x key"),
        ('table name=v x=("n", node) y=("s", seqnos, sum)',
         "field 'seqnos' (line 1, column 36) holds a vector value; sum needs a number"),
        ('table name=v x=("n", node) y=("s", name, max)',
         "field 'name' (line 1, column 36) holds a char value; max needs a number"),
        ('table name=v condition=(seqnos > 1) x=("n", node) y=("c", dura, count)',
         "field 'seqnos' (line 1, column 25) holds a vector value; a comparison needs a number"),
        ('table name=v x=("n", node + name) y=("c", dura, count)',
         "field 'name' (line 1, column 29) holds a char value; arithmetic needs a number"),
        ('table name=v x=("b", bin(seqnos, 0, 1, 2)) y=("c", dura, count)',
         "field 'seqnos' (line 1, column 26) holds a vector value; bin() needs a number"),
    ])
    def test_raises_naming_the_field(self, text, message):
        assert assert_parity(self.RECS, table(text), cuts=(1,)) == (
            "raised", StatsError, message
        )

    def test_count_and_char_keys_work(self):
        program = table('table name=v x=("s", name) y=("n", seqnos, count) '
                        'y=("e", seqnos == seqnos, max)')
        want = assert_parity(self.RECS, program, cuts=(2,))
        assert want[0][3] == [("('ab',)", "(1, True)"), ("('c',)", "(1, True)")]


# ---------------------------------------------------------------- real frames

VECTOR_KEY = 'table name=v x=("s", seqnos) y=("n", dura, count)\n'


@pytest.fixture(scope="module")
def stencil_slog(tmp_path_factory):
    """A stencil run (two iterations) converted and merged into a SLOG file:
    its MPI_Waitall records carry the vector field ``seqnos``."""
    out = tmp_path_factory.mktemp("stencil")
    assert cli.main_trace(["stencil", "-o", str(out / "raw")]) == 0
    raws = sorted(str(p) for p in (out / "raw").glob("*.raw"))
    assert cli.main_convert([*raws, "-o", str(out / "ivl")]) == 0
    ivls = sorted(str(p) for p in (out / "ivl").glob("trace*.ute"))
    slog = out / "run.slog"
    assert cli.main_slogmerge([*ivls, "-o", str(out / "merged.ute"), "--slog", str(slog)]) == 0
    return slog


def test_stencil_tables_never_fall_back(stencil_slog, monkeypatch):
    """The oracle program and the pre-defined tables (condition, bin(),
    avg, msgSizeSent, task, peer) run on columns over real frames, and
    equal the reference."""
    from repro.difftool.oracle import ORACLE_PROGRAM

    tps, threads = source_metadata([stencil_slog], None)
    batches = list(interval_records([stencil_slog], None))
    records = [r for b in batches for r in b.to_records()]
    end = max(int(b.end.max()) for b in batches)
    kwargs = {"ticks_per_sec": tps, "thread_table": threads}
    for program in (ORACLE_PROGRAM, predefined_program(end / tps, comm=True)):
        want = outcome(reference_tables, records, program, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(stats, "_row_loop", None)  # any fallback would call it
            assert outcome(generate_tables, batches, program, **kwargs) == want
        assert any(rows for *_, rows in want)


def test_stencil_vector_key_is_a_usage_error(stencil_slog, tmp_path, capsys):
    program = tmp_path / "vector.stats"
    program.write_text(VECTOR_KEY)
    assert cli.main_stats([str(stencil_slog), "--json", "--program", str(program)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("ute-stats: error: field 'seqnos'")
    # Counting the vector field and the pre-defined tables still work.
    program.write_text('table name=v x=("n", node) y=("c", seqnos, count)\n')
    assert cli.main_stats([str(stencil_slog), "--json", "--program", str(program)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tables"]["v"]["rows"]
    assert cli.main_stats([str(stencil_slog), "--json"]) == 0


def test_stencil_vector_key_is_a_400(stencil_slog):
    with ServerThread(stencil_slog, ServerConfig(port=0)) as srv:
        query = urllib.parse.urlencode({"format": "json", "table": VECTOR_KEY})
        response = ServeClient(srv.base_url).request("/api/stats?" + query)
    assert response.status == 400
    assert "seqnos" in response.text
