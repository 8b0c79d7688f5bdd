"""The convert utility: raw event trace files → per-node interval files.

Implements paper section 3.1:

* **Event matching** — a begin event is matched with its end event to create
  an interval; if other events intervene (thread dispatch, markers, nested
  MPI), the interval is divided into multiple *pieces* typed by bebits
  (begin / continuation / end; a single uninterrupted span is *complete*).
* **State nesting** — at any instant a thread's time belongs to the top of
  its state stack: an MPI routine, a user-marker region, or the default
  Running state when the stack is empty.  Entering an inner state suspends
  the outer one (its pieces stop until the inner state pops), exactly the
  semantics of section 3.3's nested-marker example.
* **Marker unification** — per-task local marker identifiers are re-assigned
  so the same string gets the same identifier in every file.
* **Clock pairs** — global-clock records become zero-duration
  ``GlobalClock`` interval records so the merge utility can align files and
  estimate drift without any side channel.

Output records are written in ascending end-time order, the interval-file
invariant.

:func:`convert_one` does the matching, nesting and cutting as array
arithmetic over the reader's decoded hookword columns
(:meth:`~repro.tracing.rawfile.RawTraceReader.columns`; the invariants are
written out in ``docs/PAPER_MAP.md`` §3.1) for every trace it can first
prove well-formed, and hands any other — a corrupt one, a wrap-mode one
whose opening events were lost — whole to :func:`reference_convert_one`,
the per-event state machine the paragraphs above describe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.layout import layout_for
from repro.core.profilefmt import Profile, standard_profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import MAX_THREADS_PER_NODE, ThreadEntry, ThreadTable
from repro.core.writer import IntervalFileWriter
from repro.errors import FormatError, TraceError
from repro.mpi.pmpi import as_signed
from repro.query.columnar import FrameBatch, batch_from_records
from repro.tracing.hooks import (
    HookId,
    MPI_FN_NAMES,
    hook_for_mpi_begin,
    hook_for_mpi_end,
    is_mpi_begin,
    is_mpi_end,
    mpi_fn_of_hook,
)
from repro.tracing.rawfile import RawColumns, RawTraceReader

#: MPI functions whose end events carry (src, tag, bytes, seqno).
_RECV_LIKE = {
    MPI_FN_NAMES.index(n) for n in ("MPI_Recv", "MPI_Irecv", "MPI_Wait", "MPI_Sendrecv")
}
#: Waitall ends carry a *vector* of completed sequence numbers instead.
_WAITALL_FN = MPI_FN_NAMES.index("MPI_Waitall")
_WAITALL_TYPE = IntervalType.for_mpi_fn(_WAITALL_FN)


class MarkerUnifier:
    """Assigns one global identifier per marker *string* across all files."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def unify(self, text: str) -> int:
        """Global identifier for ``text`` (allocating on first sight)."""
        if text not in self._ids:
            self._ids[text] = len(self._ids) + 1
        return self._ids[text]

    def table(self) -> dict[int, str]:
        """The id -> string table for interval-file marker sections."""
        return {i: s for s, i in self._ids.items()}


@dataclass
class _OpenState:
    """One entry of a thread's state stack."""

    itype: int
    opened_at: int
    extra: dict = field(default_factory=dict)
    pieces: list[tuple[int, int, int]] = field(default_factory=list)  # (start, end, cpu)
    piece_start: int | None = None  # None while suspended / off-CPU
    piece_cpu: int = 0

    def resume(self, t: int, cpu: int) -> None:
        if self.piece_start is None:
            self.piece_start = t
            self.piece_cpu = cpu

    def suspend(self, t: int) -> None:
        if self.piece_start is not None:
            if t > self.piece_start:
                self.pieces.append((self.piece_start, t, self.piece_cpu))
            self.piece_start = None


class _ThreadState:
    """Conversion state machine for one thread."""

    def __init__(self, system_tid: int) -> None:
        self.system_tid = system_tid
        self.stack: list[_OpenState] = []
        self.on_cpu: int | None = None
        self.last_seen = 0

    def top(self) -> _OpenState | None:
        return self.stack[-1] if self.stack else None


@dataclass
class ConvertResult:
    """What one conversion produced."""

    interval_paths: list[Path]
    profile_path: Path
    events_processed: int
    records_written: int
    marker_table: dict[int, str]


def convert_traces(
    raw_paths: Iterable[str | Path],
    out_dir: str | Path,
    *,
    profile: Profile | None = None,
    frame_bytes: int = 32 * 1024,
    frames_per_dir: int = 8,
    strict: bool = True,
) -> ConvertResult:
    """Convert a set of per-node raw trace files into interval files.

    All files share one marker unification pass, so "the same identifier is
    used for the same marker string for all subsequent performance
    analysis".  Returns paths and counters.

    ``strict=False`` tolerates traces whose opening events were lost — the
    facility's circular-buffer ("wrap") mode keeps only the most recent
    window, so end events may arrive with no matching begin; lenient mode
    drops those instead of failing.
    """
    raw_list = [Path(p) for p in raw_paths]
    out_dir = Path(out_dir)
    # Every input is written to its own stem: two alike, or one called like
    # the profile, would silently overwrite an output.
    writers: dict[str, object] = {"profile": "the description profile"}
    for path in raw_list:
        if path.stem in writers:
            raise TraceError(
                f"{path} and {writers[path.stem]} would both be written to "
                f"{out_dir / (path.stem + '.ute')}"
            )
        writers[path.stem] = path
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = profile or standard_profile()
    profile_path = profile.write(out_dir / "profile.ute")
    out_paths = [out_dir / (p.stem + ".ute") for p in raw_list]

    unifier = MarkerUnifier()
    events = 0
    records = 0
    for raw_path, out_path in zip(raw_list, out_paths):
        with RawTraceReader(raw_path) as reader:
            n_events, n_records = convert_one(
                reader,
                out_path,
                profile,
                unifier,
                frame_bytes=frame_bytes,
                frames_per_dir=frames_per_dir,
                strict=strict,
            )
        events += n_events
        records += n_records
    return ConvertResult(out_paths, profile_path, events, records, unifier.table())


def convert_one(
    reader: RawTraceReader,
    out_path: str | Path,
    profile: Profile,
    unifier: MarkerUnifier,
    *,
    frame_bytes: int = 32 * 1024,
    frames_per_dir: int = 8,
    strict: bool = True,
) -> tuple[int, int]:
    """Convert one node's raw trace; returns (events in, records out).

    A trace :func:`_columnar_batch` can prove well-formed is converted as
    columns (``strict`` has nothing to decide on one); any other is handed
    whole to :func:`reference_convert_one`, which writes the same bytes."""
    converted = _columnar_batch(reader, profile, unifier)
    if converted is None:
        return reference_convert_one(
            reader, out_path, profile, unifier,
            frame_bytes=frame_bytes, frames_per_dir=frames_per_dir, strict=strict,
        )
    events, table, markers, batch = converted
    with IntervalFileWriter(
        out_path,
        profile,
        table,
        markers=markers,
        node_cpus={reader.header.node_id: reader.header.n_cpus},
        field_mask=MASK_ALL_PER_NODE,
        frame_bytes=frame_bytes,
        frames_per_dir=frames_per_dir,
    ) as writer:
        writer.write_batch(batch)
    return events, batch.n


#: What each hook id is to the conversion (0: unknown).  The tables end one
#: past the last MPI end hook: index them by ``minimum(hook, _NO_HOOK)``.
#: The per-thread kinds come last, so ``kind >= _DISPATCH`` selects them.
_IGNORED, _CLOCK, _THREAD_INFO, _DEFINE, _DISPATCH, _UNDISPATCH, _PUSH, _POP = range(1, 9)
_NO_HOOK = hook_for_mpi_end(len(MPI_FN_NAMES) - 1) + 1
_KIND = np.zeros(_NO_HOOK + 1, dtype=np.uint8)
#: The interval type a push / pop hook opens / closes.
_STATE_TYPE = np.zeros(_NO_HOOK + 1, dtype=np.int64)
#: Payload words the per-event code reads without asking how many there are.
_MIN_ARGS = np.zeros(_NO_HOOK + 1, dtype=np.uint16)

#: Per interval type, the extra fields its opening event carries:
#: ``(field, payload word, signed)`` — :func:`_mpi_begin_extra` as a table.
_BEGIN_WORDS: dict[int, tuple[tuple[str, int, bool], ...]] = {
    IntervalType.RUNNING: (),
    IntervalType.MARKER: (("beginAddr", 1, False),),
    IntervalType.CLOCKPAIR: (("globalTs", 0, False),),
    IntervalType.IO: (("ioBytes", 0, False), ("ioWrite", 1, False), ("addr", 2, False)),
    IntervalType.PAGEFAULT: (("addr", 0, False),),
}
#: What a receive-like end event of four words or more overrides and adds.
_RECV_END_WORDS = (
    ("peer", 0, True), ("tag", 1, True), ("msgSizeRecv", 2, False), ("seqno", 3, False),
)


def _fill_hook_tables() -> None:
    _KIND[[HookId.TRACE_ON, HookId.TRACE_OFF]] = _IGNORED
    for hook, kind, min_args in (
        (HookId.GLOBAL_CLOCK, _CLOCK, 1), (HookId.THREAD_INFO, _THREAD_INFO, 4),
        (HookId.MARKER_DEFINE, _DEFINE, 1), (HookId.DISPATCH, _DISPATCH, 0),
        (HookId.UNDISPATCH, _UNDISPATCH, 0),
    ):
        _KIND[hook], _MIN_ARGS[hook] = kind, min_args
    _MIN_ARGS[[HookId.MARKER_BEGIN, HookId.MARKER_END]] = 1
    pairs = [
        (HookId.MARKER_BEGIN, HookId.MARKER_END, IntervalType.MARKER),
        (HookId.IO_BEGIN, HookId.IO_END, IntervalType.IO),
        (HookId.PAGEFAULT_BEGIN, HookId.PAGEFAULT_END, IntervalType.PAGEFAULT),
    ]
    for fn, name in enumerate(MPI_FN_NAMES):
        itype = IntervalType.for_mpi_fn(fn)
        pairs.append((hook_for_mpi_begin(fn), hook_for_mpi_end(fn), itype))
        if name in ("MPI_Send", "MPI_Isend", "MPI_Ssend", "MPI_Sendrecv"):
            _BEGIN_WORDS[itype] = (
                ("peer", 0, True), ("tag", 1, True), ("msgSizeSent", 2, False),
                ("seqno", 3, False), ("addr", 4, False),
            )
        elif name in ("MPI_Recv", "MPI_Irecv"):
            _BEGIN_WORDS[itype] = (("peer", 0, True), ("tag", 1, True), ("addr", 4, False))
        elif name in ("MPI_Wait", "MPI_Waitall"):
            _BEGIN_WORDS[itype] = (("addr", 0, False),)
        else:  # collectives: (root, bytes, coll_seq, addr)
            _BEGIN_WORDS[itype] = (("root", 0, True), ("msgSize", 1, False), ("addr", 3, False))
    for begin, end, itype in pairs:
        _KIND[begin], _KIND[end] = _PUSH, _POP
        _STATE_TYPE[[begin, end]] = itype


_fill_hook_tables()


def _columnar_batch(
    reader: RawTraceReader, profile: Profile, unifier: MarkerUnifier
) -> tuple[int, ThreadTable, dict[int, str], FrameBatch] | None:
    """One raw trace as ``(events, thread table, markers, the sorted batch
    of its interval records)`` — or None, with ``unifier`` untouched, unless
    the trace is proven to be one the per-event state machine walks without
    a mismatch, a synthesized name or an exception of its own:

    * every record decodes, its hook is known, its time fits int64, it has
      the payload words its hook is read for, and only ``THREAD_INFO`` and
      ``MARKER_DEFINE`` records carry text (valid UTF-8);
    * every thread has one ``THREAD_INFO``, ahead of its first event, its
      time never runs backwards, and its stack depth never falls below zero;
    * an end event closes a state of its own type, a marker end the marker
      its begin named; every marker id is defined once, ahead of its uses.
    """
    try:
        cols = reader.columns()
    except (TraceError, FormatError):
        return None
    n = len(cols)
    hook = np.minimum(cols.hook, _NO_HOOK)
    kind = _KIND[hook]
    named = (kind == _THREAD_INFO) | (kind == _DEFINE)
    if (
        not kind.all() or cols.text_len[~named].any()
        or (cols.nargs < _MIN_ARGS[hook]).any() or (n and int(cols.ts.max()) >> 63)
    ):
        return None
    with_text = np.flatnonzero(named)
    spans = zip(cols.text_offset[with_text].tolist(), cols.text_len[with_text].tolist())
    try:
        texts = {
            i: reader.source.fetch(at, size).decode("utf-8")
            for i, (at, size) in zip(with_text.tolist(), spans)
        }
    except UnicodeDecodeError:
        return None
    node_id = reader.header.node_id
    introduced = _thread_table(cols, np.flatnonzero(kind == _THREAD_INFO), texts, node_id)
    if introduced is None:
        return None
    table, threads = introduced

    when = cols.ts.view(np.int64)
    rows = _state_rows(cols, kind, when, int(when.max()) if n else 0, threads)
    if rows is None:
        return None
    # A clock pair is a zero-duration record of thread 0, emitted in place.
    clocks = np.flatnonzero(kind == _CLOCK)
    zero = np.zeros(len(clocks), dtype=np.int64)
    clock_rows = {
        "start": when[clocks], "dura": zero, "cpu": zero, "thread": zero,
        "itype": zero + IntervalType.CLOCKPAIR, "bebits": zero,
        "emit": clocks, "begin": clocks, "end": zero - 1,
    }
    rows = {name: np.concatenate((column, clock_rows[name])) for name, column in rows.items()}
    defines = np.flatnonzero(kind == _DEFINE)
    define = _marker_definitions(cols, rows, defines, [texts[i] for i in defines.tolist()])
    if define is None:
        return None
    rows["define"] = define
    # Stable in effect: rows equal in every key of the per-event sort come
    # out in the order the state machine emitted them.
    end = rows["start"] + rows["dura"]
    order = np.lexsort((rows["emit"], rows["itype"], rows["thread"], rows["start"], end))
    rows = {name: column[order] for name, column in rows.items()}
    try:
        layouts = {
            t: layout_for(profile, t, MASK_ALL_PER_NODE) for t in np.unique(rows["itype"]).tolist()
        }
    except FormatError:
        return None

    # Proven: from here on the shared unifier may move.
    global_ids = np.array([unifier.unify(texts[i]) for i in defines.tolist()], dtype=np.int64)
    markers = {g: texts[i] for g, i in zip(global_ids.tolist(), defines.tolist())}
    batch = FrameBatch(len(order), {
        "start": rows["start"], "dura": rows["dura"], "end": end[order],
        "node": np.full(len(order), node_id, dtype=np.int64), "cpu": rows["cpu"],
        "thread": rows["thread"], "itype": rows["itype"], "bebits": rows["bebits"],
    })
    for itype, layout in layouts.items():
        at = np.flatnonzero(rows["itype"] == itype)
        extras = _type_extras(cols, itype, rows["begin"][at], rows["end"][at])
        if itype == IntervalType.MARKER:
            extras["markerId"] = (global_ids[rows["define"][at]], None)
        if not layout.fixed:
            _add_row_groups(batch, at, extras)
        elif layout.extra_names:
            batch.add_group(at, layout.extra_names, {
                name: extras[name][0] if name in extras
                else np.zeros(len(at), dtype=layout.dtype[name])
                for name in layout.extra_names
            })
    return n, table, markers, batch


def _thread_table(
    cols: RawColumns, info: np.ndarray, texts: dict[int, str], node_id: int
) -> tuple[ThreadTable, dict[int, tuple[int, int]]] | None:
    """The thread table of the ``THREAD_INFO`` records ``info`` and, per
    system thread id, ``(the record's place, the logical id)``; None for a
    thread introduced twice or an entry the table refuses."""
    table = ThreadTable()
    threads: dict[int, tuple[int, int]] = {}
    words = np.stack([cols.arg(info, k) for k in range(4)], axis=1).tolist()
    try:
        for i, tid, (pid, task, category, logical) in zip(
            info.tolist(), cols.tid[info].tolist(), words
        ):
            if tid in threads:
                return None
            threads[tid] = (i, logical)
            mpi_task = -1 if task == 0xFFFFFFFF else task
            table.add(ThreadEntry(mpi_task, pid, tid, node_id, logical, category, texts[i]))
    except FormatError:
        return None
    return table, threads


def _marker_definitions(
    cols: RawColumns, rows: dict[str, np.ndarray], defines: np.ndarray, texts: list[str]
) -> np.ndarray | None:
    """Per row, which of the ``MARKER_DEFINE`` records ``defines`` (with
    ``texts``) its marker begin named (-1: not a marker row); None unless
    every local id is defined once, every begin and end names one defined
    ahead of it, and an end names the string its begin did."""
    define = np.full(len(rows["itype"]), -1, dtype=np.int64)
    marked = np.flatnonzero(rows["itype"] == IntervalType.MARKER)
    local_ids = cols.arg(defines, 0)
    by_id = np.argsort(local_ids)
    sorted_ids = local_ids[by_id]
    if (sorted_ids[1:] == sorted_ids[:-1]).any() or len(marked) and not len(defines):
        return None
    if not len(marked):
        return define
    first: dict[str, int] = {}
    same_text = np.array([first.setdefault(text, i) for i, text in enumerate(texts)])

    def named(events: np.ndarray) -> np.ndarray:
        ids = cols.arg(events, 0)
        at = np.minimum(np.searchsorted(sorted_ids, ids), len(sorted_ids) - 1)
        ahead = (sorted_ids[at] == ids) & (defines[by_id[at]] < events)
        return np.where(ahead, by_id[at], -1)

    opening = named(rows["begin"][marked])
    closed = rows["end"][marked] >= 0
    closing = named(rows["end"][marked][closed])
    if (
        (opening < 0).any() or (closing < 0).any()
        or (same_text[closing] != same_text[opening[closed]]).any()
    ):
        return None
    define[marked] = opening
    return define


def _add_row_groups(batch: FrameBatch, at: np.ndarray, extras: dict) -> None:
    """Give each of the rows ``at`` — of a vector/char type, which is
    encoded record by record — the fields of ``extras`` it really has."""
    listed = {
        name: (
            values.tolist() if isinstance(values, np.ndarray) else values,
            has if has is None else has.tolist(),
        )
        for name, (values, has) in extras.items()
    }
    for i, row in enumerate(at.tolist()):
        extra = {
            name: values[i] for name, (values, has) in listed.items() if has is None or has[i]
        }
        if extra:
            batch.add_group([row], tuple(extra), {k: [v] for k, v in extra.items()})


#: The row columns :func:`_state_rows` answers with.
_ROW_COLUMNS = ("start", "dura", "cpu", "thread", "itype", "bebits", "emit", "begin", "end")


def _state_rows(
    cols: RawColumns, kind: np.ndarray, when: np.ndarray, last_ts: int,
    threads: dict[int, tuple[int, int]],
) -> dict[str, np.ndarray] | None:
    """Event matching, state nesting and piece cutting over the per-thread
    events of ``cols``: one row per interval record as int64 columns —
    ``start``, ``dura``, ``cpu``, ``thread`` (logical), ``itype``,
    ``bebits``, ``emit`` (the order the state machine emits records in),
    ``begin`` / ``end`` (the state's opening and closing event; no end: -1)
    — or None for a trace outside :func:`_columnar_batch`'s conditions.

    A thread's events in file order give its stack depth as a running sum
    of pushes less pops.  Sorted by (thread, depth after the event, place)
    every *state instance* is one contiguous slice: a push and the events
    that leave its level on top, up to its pop; at depth 0, the Running
    stretch from a pop (or the thread's start) to the next push.  The time
    from an event to the thread's next belongs to the instance on top after
    it, if the thread is then on a CPU; a *piece* is a maximal run of such
    slots adjacent in the thread."""
    sel = np.flatnonzero(kind >= _DISPATCH)
    m = len(sel)
    if not m:
        return {name: np.zeros(0, dtype=np.int64) for name in _ROW_COLUMNS}
    ev = sel[np.argsort(cols.tid[sel], kind="stable")]  # thread by thread, in file order
    tid = cols.tid[ev]
    first = np.ones(m, dtype=bool)  # a thread's first event
    first[1:] = tid[1:] != tid[:-1]
    starts = np.flatnonzero(first)
    thread = np.cumsum(first) - 1
    logical = []
    for system_tid, place in zip(tid[starts].tolist(), ev[starts].tolist()):
        known = threads.get(system_tid)
        if known is None or known[0] > place:
            return None
        logical.append(known[1])
    at = when[ev]
    if ((at[1:] < at[:-1]) & ~first[1:]).any():
        return None
    k = kind[ev]
    push, pop, dispatch = k == _PUSH, k == _POP, k == _DISPATCH
    delta = push.astype(np.int64) - pop
    depth = np.cumsum(delta)
    depth -= (depth - delta)[starts][thread]
    if depth.min() < 0:
        return None

    levels = int(depth.max()) + 1
    key = thread * levels + depth
    # 16-bit keys take numpy's radix sort.
    q = np.argsort(key.astype(np.uint16) if len(starts) * levels <= 1 << 16 else key,
                   kind="stable")
    key_q, level_q, pop_q = key[q], depth[q], pop[q]
    opens = push[q] | (pop_q & (level_q == 0))
    opens[0] = True
    opens[1:] |= key_q[1:] != key_q[:-1]
    inst = np.cumsum(opens) - 1
    inst_at = np.flatnonzero(opens)
    n_inst = len(inst_at)
    opener = q[inst_at]
    level = level_q[inst_at]

    # On a CPU after an event: what the thread's last (un)dispatch says.
    index = np.arange(m)
    sched = np.maximum.accumulate(np.where(dispatch | (k == _UNDISPATCH) | first, index, 0))
    on = dispatch[sched]
    cpu = cols.cpu[ev].astype(np.int64)
    until = np.append(at[1:], last_ts)
    until[starts[1:] - 1] = last_ts

    on_q = on[q]
    joins = on_q[1:] & on_q[:-1] & (q[1:] == q[:-1] + 1) & ~opens[1:]
    run_first = np.flatnonzero(on_q & np.append(True, ~joins))
    head = q[run_first]
    run_start = at[head]
    run_end = until[q[np.flatnonzero(on_q & np.append(~joins, True))]]
    # A piece opened by a push is on the CPU the push was cut on, any
    # other on the CPU of the thread's last dispatch.
    run_cpu = np.where(push[head], cpu[head], cpu[sched[head]])
    run_inst = inst[run_first]

    runs = np.bincount(run_inst, minlength=n_inst)
    kept = run_end > run_start  # zero-length pieces are dropped
    piece_inst = run_inst[kept]
    pieces = np.bincount(piece_inst, minlength=n_inst)
    last_run = np.cumsum(runs) - 1
    ran = np.flatnonzero(runs)
    # A Running stretch opens with its first run (none: there is no such
    # instance); a state left without a piece keeps one zero-duration
    # record where it opened, on the CPU of its last run.
    opened = at[opener]
    idle = ran[level[ran] == 0]
    opened[idle] = run_start[(last_run - runs + 1)[idle]]
    bare = np.flatnonzero(((level > 0) | (runs > 0)) & (pieces == 0))
    bare_cpu = np.zeros(n_inst, dtype=np.int64)
    bare_cpu[ran] = run_cpu[last_run[ran]]

    # The event that closes an instance.  Pushes and pops both run in
    # (thread, level, place) order along q, so with the pushes left open at
    # the thread's end set aside they pair off one to one; a Running
    # stretch is closed by the push behind its last event.
    closer = np.full(n_inst, -1, dtype=np.int64)
    states = np.flatnonzero(level > 0)
    state_key = key_q[inst_at[states]]
    final_depth = depth[np.append(starts[1:], m) - 1]
    left_open = np.append(state_key[1:] != state_key[:-1], True) & (
        level[states] <= final_depth[thread[opener[states]]]
    )
    closer[states[~left_open]] = q[np.flatnonzero(pop_q)]
    running = np.flatnonzero(level == 0)
    behind = q[np.append(inst_at[1:], m)[running] - 1] + 1
    pushed = behind < m
    pushed[pushed] = ~first[behind[pushed]]
    closer[running[pushed]] = behind[pushed]
    itype = np.where(level > 0, _STATE_TYPE[cols.hook[ev[opener]]], IntervalType.RUNNING)
    ended = states[~left_open]
    if (_STATE_TYPE[cols.hook[ev[closer[ended]]]] != itype[ended]).any():
        return None
    # States open at the end of the trace are emitted after everything,
    # thread by first appearance, innermost first.
    appeared = np.argsort(np.argsort(ev[starts]))
    emit = np.where(
        closer >= 0, ev[closer],
        len(cols) + appeared[thread[opener]] * (levels + 1) + (levels - level),
    )
    end = np.full(n_inst, -1, dtype=np.int64)
    end[ended] = ev[closer[ended]]

    nth = np.arange(len(piece_inst)) - (np.cumsum(pieces) - pieces)[piece_inst]
    of = pieces[piece_inst]
    bebits = np.select(
        [of == 1, nth == 0, nth == of - 1],
        [int(BeBits.COMPLETE), int(BeBits.BEGIN), int(BeBits.END)],
        int(BeBits.CONTINUATION),
    )
    row_inst = np.concatenate((piece_inst, bare))
    nothing = np.zeros(len(bare), dtype=np.int64)
    return {
        "start": np.concatenate((run_start[kept], opened[bare])),
        "dura": np.concatenate(((run_end - run_start)[kept], nothing)),
        "cpu": np.concatenate((run_cpu[kept], bare_cpu[bare])),
        "thread": np.array(logical, dtype=np.int64)[thread[opener]][row_inst],
        "itype": itype[row_inst],
        "bebits": np.concatenate((bebits, nothing + int(BeBits.COMPLETE))),
        "emit": emit[row_inst],
        "begin": ev[opener][row_inst],
        "end": end[row_inst],
    }


def _type_extras(
    cols: RawColumns, itype: int, begin: np.ndarray, end: np.ndarray
) -> dict[str, tuple]:
    """The extra fields of one interval type's rows, read from the events
    that opened (``begin``) and closed (``end``; -1: none did) each row's
    state: ``{field: (values, the rows that have it — None: all)}``.  A row
    that lacks a scalar field reads zero, the value it encodes as; the one
    vector, ``seqnos``, is a list per row."""
    extras: dict[str, tuple] = {}
    for name, word, signed in _BEGIN_WORDS[itype]:
        words = cols.arg(begin, word)
        extras[name] = (words.view(np.int64) if signed else words, None)
    closer = np.where(end >= 0, end, 0)
    if itype == IntervalType.MARKER:
        extras["beginAddr"] = (extras["beginAddr"][0], cols.nargs[begin] > 1)
        has = (end >= 0) & (cols.nargs[closer] > 1)
        extras["endAddr"] = (np.where(has, cols.arg(closer, 1), 0), has)
    elif itype - IntervalType.MPI_BASE in _RECV_LIKE:
        has = (end >= 0) & (cols.nargs[closer] >= 4)
        for name, word, signed in _RECV_END_WORDS:
            words = cols.arg(closer, word)
            if signed:
                words = words.view(np.int64)
            if name in extras:
                extras[name] = (np.where(has, words, extras[name][0]), None)
            else:
                extras[name] = (np.where(has, words, 0), has)
    elif itype == _WAITALL_TYPE:
        # The completed receives' sequence numbers: one list per row.
        has = (end >= 0) & (cols.nargs[closer] > 0)
        spans = zip(cols.arg_start[closer].tolist(), cols.nargs[closer].tolist())
        extras["seqnos"] = ([cols.args[at : at + n].tolist() for at, n in spans], has)
    return extras


def reference_convert_one(
    reader: RawTraceReader,
    out_path: str | Path,
    profile: Profile,
    unifier: MarkerUnifier,
    *,
    frame_bytes: int = 32 * 1024,
    frames_per_dir: int = 8,
    strict: bool = True,
) -> tuple[int, int]:
    """:func:`convert_one` as a state machine walked event by event.

    Called from three kinds of place only: :func:`convert_one` for a trace it cannot prove well-formed, ``ute-oracle``'s ``convert_parity``, and the tests.
    It is what raises on a corrupt trace in strict mode and what converts
    a wrap-mode trace (opening events lost) under ``strict=False``."""

    def mismatch(message: str) -> bool:
        """Handle an unmatched end/undefined reference.  In strict mode the
        trace is corrupt and we fail; lenient mode (wrap-mode traces whose
        head was overwritten) drops the event and carries on."""
        if strict:
            raise TraceError(message)
        return True
    node_id = reader.header.node_id
    threads: dict[int, _ThreadState] = {}
    table = ThreadTable()
    tid_to_logical: dict[int, int] = {}
    local_markers: dict[int, int] = {}  # this file's local id -> global id
    used_markers: dict[int, str] = {}
    converted: list[IntervalRecord] = []  # in emission order
    events = 0
    last_ts = 0

    # Synthetic logical ids (for wrap-mode traces whose THREAD_INFO was
    # overwritten) are allocated from the top of the 512-per-node space so
    # they cannot collide with real, low-numbered logical ids.
    synthetic_ltid = [MAX_THREADS_PER_NODE - 1]

    def logical_of(system_tid: int) -> int:
        logical = tid_to_logical.get(system_tid)
        if logical is None:
            logical = synthetic_ltid[0]
            synthetic_ltid[0] -= 1
            tid_to_logical[system_tid] = logical
            table.add(
                ThreadEntry(
                    -1, 0, system_tid, node_id, logical, 2,
                    f"<lost thread {system_tid}>",
                )
            )
        return logical

    def state_of(system_tid: int) -> _ThreadState:
        if system_tid not in threads:
            threads[system_tid] = _ThreadState(system_tid)
        return threads[system_tid]

    def close_state(ts: _ThreadState, st: _OpenState, t: int) -> None:
        """Pop a finished state and emit its pieces with bebits."""
        st.suspend(t)
        if not st.pieces:
            # A state with no on-CPU time still gets a zero-duration record
            # so counting by type stays correct.
            st.pieces.append((st.opened_at, st.opened_at, st.piece_cpu))
        emit_pieces(ts, st)

    def emit_pieces(ts: _ThreadState, st: _OpenState) -> None:
        thread = logical_of(ts.system_tid)
        n = len(st.pieces)
        for i, (start, end, cpu) in enumerate(st.pieces):
            if n == 1:
                bebits = BeBits.COMPLETE
            elif i == 0:
                bebits = BeBits.BEGIN
            elif i == n - 1:
                bebits = BeBits.END
            else:
                bebits = BeBits.CONTINUATION
            # The state is closed: its pieces can share its extra fields.
            converted.append(
                IntervalRecord(st.itype, bebits, start, end - start, node_id, cpu, thread, st.extra)
            )

    for event in reader:
        events += 1
        t = event.local_ts
        last_ts = max(last_ts, t)
        hook = event.hook_id

        if hook == HookId.GLOBAL_CLOCK:
            converted.append(IntervalRecord(
                IntervalType.CLOCKPAIR, BeBits.COMPLETE, t, 0, node_id, 0, 0,
                {"globalTs": event.args[0]},
            ))
            continue
        if hook == HookId.THREAD_INFO:
            pid, task_raw, category, logical_tid = event.args[:4]
            mpi_task = -1 if task_raw == 0xFFFFFFFF else int(task_raw)
            tid_to_logical[event.system_tid] = int(logical_tid)
            table.add(
                ThreadEntry(
                    mpi_task,
                    int(pid),
                    event.system_tid,
                    node_id,
                    int(logical_tid),
                    int(category),
                    event.text,
                )
            )
            continue
        if hook in (HookId.TRACE_ON, HookId.TRACE_OFF):
            continue
        if hook == HookId.MARKER_DEFINE:
            local_id = int(event.args[0])
            global_id = unifier.unify(event.text)
            local_markers[local_id] = global_id
            used_markers[global_id] = event.text
            continue

        ts = state_of(event.system_tid)

        if hook == HookId.DISPATCH:
            ts.on_cpu = event.cpu
            if ts.stack:
                ts.top().resume(t, event.cpu)
            else:
                # Dispatch with no open state: a Running state begins.
                st = _OpenState(IntervalType.RUNNING, t)
                st.resume(t, event.cpu)
                ts.stack.append(st)
            continue
        if hook == HookId.UNDISPATCH:
            top = ts.top()
            if top is not None:
                top.suspend(t)
                if top.itype == IntervalType.RUNNING and len(ts.stack) == 1:
                    # Keep Running open across de-schedules; it closes when a
                    # new state pushes or the trace ends.
                    pass
            ts.on_cpu = None
            continue

        cpu = event.cpu
        if is_mpi_begin(hook):
            _push_state(
                ts, t, cpu,
                IntervalType.for_mpi_fn(mpi_fn_of_hook(hook)),
                _mpi_begin_extra(mpi_fn_of_hook(hook), event.args),
                close_state,
            )
            continue
        if is_mpi_end(hook):
            fn = mpi_fn_of_hook(hook)
            itype = IntervalType.for_mpi_fn(fn)
            top = ts.top()
            if top is None or top.itype != itype:
                if mismatch(
                    f"node {node_id} tid {event.system_tid}: "
                    f"MPI end for type {itype} does not match open state"
                ):
                    continue
            if fn == _WAITALL_FN:
                # Waitall ends carry the completed receives' sequence
                # numbers; they become a vector field on the interval.
                if event.args:
                    top.extra["seqnos"] = [int(s) for s in event.args]
            elif fn in _RECV_LIKE and len(event.args) >= 4:
                src, tag, size, seqno = event.args[:4]
                top.extra["peer"] = as_signed(src)
                top.extra["tag"] = as_signed(tag)
                top.extra["msgSizeRecv"] = int(size)
                top.extra["seqno"] = int(seqno)
            ts.stack.pop()
            close_state(ts, top, t)
            _reopen_below(ts, t)
            continue
        if hook == HookId.MARKER_BEGIN:
            local_id = int(event.args[0])
            global_id = local_markers.get(local_id)
            if global_id is None:
                if strict:
                    raise TraceError(
                        f"node {node_id}: marker begin for undefined local id {local_id}"
                    )
                # Wrap mode overwrote the MARKER_DEFINE: synthesize a name so
                # the region is still visible.
                global_id = unifier.unify(f"<lost marker {node_id}/{local_id}>")
                local_markers[local_id] = global_id
                used_markers[global_id] = f"<lost marker {node_id}/{local_id}>"
            extra = {"markerId": global_id}
            if len(event.args) > 1:
                extra["beginAddr"] = int(event.args[1])
            _push_state(ts, t, cpu, IntervalType.MARKER, extra, close_state)
            continue
        if hook == HookId.IO_BEGIN:
            size, write, addr = (list(event.args) + [0, 0, 0])[:3]
            _push_state(
                ts, t, cpu, IntervalType.IO,
                {"ioBytes": int(size), "ioWrite": int(write), "addr": int(addr)},
                close_state,
            )
            continue
        if hook == HookId.IO_END:
            top = ts.top()
            if top is None or top.itype != IntervalType.IO:
                if mismatch(
                    f"node {node_id}: I/O end does not match an open I/O state"
                ):
                    continue
            ts.stack.pop()
            close_state(ts, top, t)
            _reopen_below(ts, t)
            continue
        if hook == HookId.PAGEFAULT_BEGIN:
            _push_state(
                ts, t, cpu, IntervalType.PAGEFAULT,
                {"addr": int(event.args[0]) if event.args else 0},
                close_state,
            )
            continue
        if hook == HookId.PAGEFAULT_END:
            top = ts.top()
            if top is None or top.itype != IntervalType.PAGEFAULT:
                if mismatch(
                    f"node {node_id}: page-fault end does not match an open fault"
                ):
                    continue
            ts.stack.pop()
            close_state(ts, top, t)
            _reopen_below(ts, t)
            continue
        if hook == HookId.MARKER_END:
            local_id = int(event.args[0])
            global_id = local_markers.get(local_id)
            top = ts.top()
            if top is None or top.itype != IntervalType.MARKER or (
                global_id is not None and top.extra.get("markerId") != global_id
            ):
                if mismatch(
                    f"node {node_id}: marker end (local id {local_id}) does not "
                    "match the innermost open marker"
                ):
                    continue
            if len(event.args) > 1:
                top.extra["endAddr"] = int(event.args[1])
            ts.stack.pop()
            close_state(ts, top, t)
            _reopen_below(ts, t)
            continue
        raise TraceError(f"unhandled hook 0x{hook:x} in conversion")

    # Trace over: close anything still open (trace stopped mid-state).
    for ts in threads.values():
        while ts.stack:
            st = ts.stack.pop()
            close_state(ts, st, last_ts)

    batch = batch_from_records(converted)
    # Stable, so rows equal in every key keep the order they were emitted in.
    batch = batch.take(np.lexsort((batch.itype, batch.thread, batch.start, batch.end)))
    with IntervalFileWriter(
        out_path,
        profile,
        table,
        markers=used_markers,
        node_cpus={node_id: reader.header.n_cpus},
        field_mask=MASK_ALL_PER_NODE,
        frame_bytes=frame_bytes,
        frames_per_dir=frames_per_dir,
    ) as writer:
        writer.write_batch(batch)
    return events, batch.n


def _push_state(ts: _ThreadState, t: int, cpu: int, itype: int, extra: dict, close_state) -> None:
    """Enter a new state: suspend (or finish, for Running) the current top."""
    top = ts.top()
    if top is not None:
        if top.itype == IntervalType.RUNNING:
            # Running is the default filler — a real state replaces it.
            ts.stack.pop()
            close_state(ts, top, t)
        else:
            top.suspend(t)
    st = _OpenState(itype, t, extra)
    if ts.on_cpu is not None:
        st.resume(t, cpu)
    ts.stack.append(st)


def _reopen_below(ts: _ThreadState, t: int) -> None:
    """After a pop, the newly exposed state resumes (or Running restarts)."""
    if ts.on_cpu is None:
        return
    top = ts.top()
    if top is not None:
        top.resume(t, ts.on_cpu)
    else:
        st = _OpenState(IntervalType.RUNNING, t)
        st.resume(t, ts.on_cpu)
        ts.stack.append(st)


def _mpi_begin_extra(fn_id: int, args: tuple[int, ...]) -> dict:
    """Decode an MPI begin event's payload into interval extra fields."""
    name = MPI_FN_NAMES[fn_id]
    extra: dict = {}
    if name in ("MPI_Send", "MPI_Isend", "MPI_Ssend", "MPI_Sendrecv"):
        peer, tag, size, seqno, addr = (list(args) + [0] * 5)[:5]
        extra = {
            "peer": as_signed(peer),
            "tag": as_signed(tag),
            "msgSizeSent": int(size),
            "seqno": int(seqno),
            "addr": int(addr),
        }
    elif name in ("MPI_Recv", "MPI_Irecv"):
        src, tag, _size, _seqno, addr = (list(args) + [0] * 5)[:5]
        extra = {"peer": as_signed(src), "tag": as_signed(tag), "addr": int(addr)}
    elif name in ("MPI_Wait", "MPI_Waitall"):
        extra = {"addr": int(args[0]) if args else 0}
    else:  # collectives: (root, bytes, coll_seq, addr)
        root, size, _seq, addr = (list(args) + [0] * 4)[:4]
        extra = {"root": as_signed(root), "msgSize": int(size), "addr": int(addr)}
    return extra
