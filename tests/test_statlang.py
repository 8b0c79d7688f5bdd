"""Tests for the statistics table language: lexer, parser, evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StatsError
from repro.utils.statlang import (
    Bin,
    BinOp,
    Field,
    Literal,
    TableProgram,
    parse_program,
    tokenize,
)
from tests.conftest import max_examples

PAPER_EXAMPLE = """
table name=sample condition=(start < 2)
      x=("node", node) x=("processor", cpu)
      y=("avg(duration)", dura, avg)
"""


class TestTokenizer:
    def test_basic_tokens(self):
        tokens = tokenize('table name=t x=("a", node)')
        kinds = [t.kind for t in tokens]
        assert kinds == ["name", "name", "op", "name", "name", "op", "op",
                         "string", "op", "name", "op"]

    def test_numbers(self):
        tokens = tokenize("1 2.5 .75 100")
        assert [t.text for t in tokens] == ["1", "2.5", ".75", "100"]

    def test_operators(self):
        tokens = tokenize("<= >= == != < > + - * /")
        assert [t.text for t in tokens] == ["<=", ">=", "==", "!=", "<", ">",
                                            "+", "-", "*", "/"]

    def test_unknown_character_rejected(self):
        with pytest.raises(StatsError, match="unexpected character"):
            tokenize("table @ x")


class TestParser:
    def test_paper_example(self):
        (table,) = parse_program(PAPER_EXAMPLE)
        assert table.name == "sample"
        assert table.x_labels() if hasattr(table, "x_labels") else True
        assert [label for label, _ in table.xs] == ["node", "processor"]
        assert [(label, agg) for label, _, agg in table.ys] == [("avg(duration)", "avg")]
        assert isinstance(table.condition, BinOp)
        assert table.condition.op == "<"

    def test_multiple_tables(self):
        program = """
        table name=a x=("n", node) y=("c", dura, count)
        table name=b x=("t", thread) y=("s", dura, sum)
        """
        tables = parse_program(program)
        assert [t.name for t in tables] == ["a", "b"]

    def test_condition_optional(self):
        (table,) = parse_program('table name=t x=("n", node) y=("c", dura, count)')
        assert table.condition is None

    def test_missing_name_rejected(self):
        with pytest.raises(StatsError, match="needs a name"):
            parse_program('table x=("n", node) y=("c", dura, count)')

    def test_missing_x_rejected(self):
        with pytest.raises(StatsError, match="at least one x"):
            parse_program('table name=t y=("c", dura, count)')

    def test_missing_y_rejected(self):
        with pytest.raises(StatsError, match="at least one y"):
            parse_program('table name=t x=("n", node)')

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(StatsError, match="unknown aggregate"):
            parse_program('table name=t x=("n", node) y=("c", dura, median)')

    def test_unquoted_label_rejected(self):
        with pytest.raises(StatsError, match="quoted label"):
            parse_program("table name=t x=(n, node) y=(c, dura, count)")

    def test_empty_program_rejected(self):
        with pytest.raises(StatsError, match="empty"):
            parse_program("   ")

    def test_fields_collected(self):
        (table,) = parse_program(
            'table name=t condition=(start < 2 and type == 1) '
            'x=("n", node) y=("s", dura * 2, sum)'
        )
        assert table.fields() == {"start", "type", "node", "dura"}


class TestExpressionEvaluation:
    ENV = {"start": 1.5, "dura": 0.25, "node": 2, "cpu": 1, "type": 7}

    def eval_expr(self, text):
        (table,) = parse_program(f'table name=t x=("v", {text}) y=("c", dura, count)')
        return table.xs[0][1].eval(self.ENV)

    def test_arithmetic(self):
        assert self.eval_expr("1 + 2 * 3") == 7
        assert self.eval_expr("(1 + 2) * 3") == 9
        assert self.eval_expr("10 / 4") == 2.5
        assert self.eval_expr("7 - 2 - 1") == 4  # left associative

    def test_unary_minus(self):
        assert self.eval_expr("-node") == -2
        assert self.eval_expr("3 - -2") == 5

    def test_comparisons(self):
        assert self.eval_expr("start < 2") is True
        assert self.eval_expr("start >= 2") is False
        assert self.eval_expr("node == 2") is True
        assert self.eval_expr("node != 2") is False

    def test_boolean_logic(self):
        assert self.eval_expr("start < 2 and node == 2") is True
        assert self.eval_expr("start < 1 or node == 2") is True
        assert self.eval_expr("not (node == 2)") is False

    def test_field_lookup(self):
        assert self.eval_expr("dura") == 0.25

    def test_unknown_field_raises(self):
        (table,) = parse_program('table name=t x=("v", bogus) y=("c", dura, count)')
        with pytest.raises(StatsError, match="no field"):
            table.xs[0][1].eval(self.ENV)

    def test_division_by_zero_reported(self):
        with pytest.raises(StatsError, match="division by zero"):
            self.eval_expr("1 / (node - 2)")

    def test_bin_function(self):
        assert self.eval_expr("bin(start, 0, 3, 3)") == 1
        assert self.eval_expr("bin(start, 0, 2, 50)") == 37

    def test_bin_clamps(self):
        assert self.eval_expr("bin(start, 0, 1, 10)") == 9
        assert self.eval_expr("bin(start - 10, 0, 1, 10)") == 0

    def test_bad_bin_parameters(self):
        with pytest.raises(StatsError, match="bad bin"):
            self.eval_expr("bin(start, 5, 5, 10)")

    @given(
        a=st.floats(min_value=-100, max_value=100),
        b=st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=max_examples(100))
    def test_arith_matches_python(self, a, b):
        (table,) = parse_program(
            'table name=t x=("v", start + dura * start - dura) y=("c", dura, count)'
        )
        got = table.xs[0][1].eval({"start": a, "dura": b})
        assert got == pytest.approx(a + b * a - b, nan_ok=True)


class TestDiagnostics:
    """Failure modes must point at the offending line and column."""

    def test_tokenizer_reports_line_and_column(self):
        with pytest.raises(StatsError, match=r"line 2, column 8"):
            tokenize("table\nname=t @")

    def test_malformed_table_clause(self):
        with pytest.raises(StatsError, match=r"line \d+, column \d+"):
            parse_program("table name=t x=(")

    def test_unknown_table_keyword_located(self):
        with pytest.raises(StatsError, match=r"line 1, column \d+"):
            parse_program('table name=t z=("a", node)')

    def test_unknown_aggregate_located(self):
        with pytest.raises(StatsError) as excinfo:
            parse_program('table name=t x=("a", node) y=("y", dura, median)')
        message = str(excinfo.value)
        assert "unknown aggregate" in message
        assert "line 1" in message and "column" in message

    def test_unterminated_condition(self):
        program = "table name=t condition=(start <\n"
        with pytest.raises(StatsError) as excinfo:
            parse_program(program)
        message = str(excinfo.value)
        assert "line" in message and "column" in message

    def test_unterminated_string_located(self):
        with pytest.raises(StatsError, match=r"line 1, column \d+"):
            tokenize('table name=t x=("oops')

    def test_unknown_field_reports_location(self):
        (table,) = parse_program('table name=t\n  x=("a", no_such_field)\n'
                                 '  y=("c", dura, count)')
        with pytest.raises(StatsError) as excinfo:
            table.xs[0][1].eval({"start": 1})
        message = str(excinfo.value)
        assert "no field 'no_such_field'" in message
        assert "line 2" in message
