"""The declarative statistics table language (paper section 3.2).

A program is a sequence of table specifications::

    table name=sample condition=(start < 2)
          x=("node", node) x=("processor", cpu)
          y=("avg(duration)", dura, avg)

* ``condition`` selects intervals (any boolean expression over fields);
* each ``x`` declares a free variable of the table (label + expression);
* each ``y`` declares a dependent value (label + expression + aggregate).

Expressions support field names, numeric literals, arithmetic
(``+ - * /``), comparisons, ``and`` / ``or`` / ``not``, parentheses, and the
binning function ``bin(expr, lo, hi, n)`` which maps a value into one of
``n`` equal bins over [lo, hi).  Aggregates: ``avg sum min max count``.

Field names come from the description profile (``start``, ``dura``,
``node``, ``cpu``, ``thread``, ``msgSizeSent``, …) plus the synthesized
``type`` (interval type number) and ``bebits``.  Time-valued fields
(``start``, ``dura``, ``localStart``) are presented in **seconds**, matching
the paper's ``condition=(start < 2)`` reading "started during the first 2
seconds".  Arithmetic, ordering comparisons and ``bin()`` take numbers only:
a vector or char field's value reaching one is a :class:`StatsError` naming
the field.

Every expression node evaluates two ways: :meth:`Expr.eval` on one
record's environment (the row loop), and :meth:`Expr.columns` on a whole
batch at once, giving a :class:`Column` that holds exactly what ``eval``
would return on each row.  Where NumPy cannot be proven to compute that —
an int operand past 2**53 meeting a float in ``/`` or a comparison, int64
overflow, a zero divisor, bad ``bin()`` parameters — ``columns`` raises
:class:`NeedsRows` and the caller runs the batch through ``eval`` instead.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Protocol

import numpy as np

from repro.errors import StatsError

AGGREGATES = ("avg", "sum", "min", "max", "count")

# ----------------------------------------------------------------- lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|[-+*/<>(),=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int
    line: int = field(default=1, compare=False)
    col: int = field(default=1, compare=False)

    def where(self) -> str:
        """Human-readable location, used in every diagnostic."""
        return f"line {self.line}, column {self.col}"


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of character offset ``pos``."""
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


def tokenize(text: str) -> list[Token]:
    """Split a program into tokens; raises on anything unrecognized.

    Tokens remember their 1-based line and column so parse and evaluation
    diagnostics can point at the offending spot — these messages are API
    surface (the serving daemon returns them as HTTP 400 bodies)."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            line, col = _line_col(text, pos)
            raise StatsError(
                f"unexpected character {text[pos]!r} at line {line}, column {col}"
            )
        kind = m.lastgroup
        assert kind is not None
        if kind != "ws":
            line, col = _line_col(text, pos)
            tokens.append(Token(kind, m.group(), pos, line, col))
        pos = m.end()
    return tokens


# ------------------------------------------------------------- expressions


class Expr:
    """Base class of expression AST nodes."""

    def eval(self, env: Mapping[str, Any]) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def columns(self, env: "ColumnEnv") -> "Column":  # pragma: no cover - abstract
        """This expression on every row of ``env``'s batch."""
        raise NotImplementedError

    def fields(self) -> set[str]:
        """Field names this expression reads."""
        return set()


# ---------------------------------------------------------------- columns

#: Every int of at most this magnitude is exactly a float64.
_EXACT_FLOAT = 1 << 53
#: Ints must stay below this magnitude to be int64 column values.
_INT64 = 1 << 63


class NeedsRows(Exception):
    """A batch the column evaluator cannot prove equal to the row loop;
    the caller evaluates that batch record by record instead."""


@dataclass(frozen=True)
class Column:
    """An expression's values over a batch: ``values[i]`` equals what
    :meth:`Expr.eval` returns on row ``i``, held as int64 (``kind`` "int"),
    float64 ("float") or bool ("bool") — the Python type of each value.
    ``present`` marks the rows whose record carries every field read (None:
    all rows); elsewhere ``values`` is filler."""

    values: np.ndarray
    kind: str
    present: np.ndarray | None = None


class ColumnEnv(Protocol):
    """What :meth:`Expr.columns` reads: the batch's row count, its fields
    as columns, and ``scope`` — the rows the row loop might evaluate the
    expression on (None: all), the only rows whose values are checked."""

    n: int
    scope: np.ndarray | None

    def field(self, name: str) -> Column: ...


def _present(*cols: Column) -> np.ndarray | None:
    masks = [c.present for c in cols if c.present is not None]
    if not masks:
        return None
    out = masks[0]
    for mask in masks[1:]:
        out = out & mask
    return out


def _live(env: ColumnEnv, present: np.ndarray | None) -> np.ndarray | None:
    """Rows where the row loop could reach an operation over columns with
    ``present`` rows (a superset: checks there are conservative)."""
    if env.scope is None:
        return present
    return env.scope if present is None else env.scope & present


def _on(values: np.ndarray, live: np.ndarray | None) -> np.ndarray:
    return values if live is None else values[live]


def _number(col: Column) -> np.ndarray:
    """Values for arithmetic: bools count as the ints they are in Python."""
    return col.values.astype(np.int64) if col.kind == "bool" else col.values


def _magnitude(col: Column, live: np.ndarray | None) -> int:
    """The largest ``abs`` of a non-float column's live values."""
    values = _on(col.values, live)
    if not len(values):
        return 0
    if col.kind == "bool":
        return 1
    return max(-int(values.min()), int(values.max()))


def _truth(col: Column) -> np.ndarray:
    return col.values if col.kind == "bool" else col.values != 0


_ARITH = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _arith(op: str, a: Column, b: Column, env: ColumnEnv) -> Column:
    present = _present(a, b)
    values = _ARITH[op](_number(a), _number(b))
    if a.kind == "float" or b.kind == "float":
        return Column(values, "float", present)
    live = _live(env, present)
    ma, mb = _magnitude(a, live), _magnitude(b, live)
    if (ma * mb if op == "*" else ma + mb) >= _INT64:
        raise NeedsRows  # Python ints do not wrap
    return Column(values, "int", present)


def _divide(a: Column, b: Column, env: ColumnEnv) -> Column:
    present = _present(a, b)
    live = _live(env, present)
    if not _on(b.values, live).all():
        raise NeedsRows  # a zero divisor: the row loop raises
    if "float" not in (a.kind, b.kind) and max(
        _magnitude(a, live), _magnitude(b, live)
    ) > _EXACT_FLOAT:
        raise NeedsRows  # int / int rounds the exact quotient once
    return Column(
        _number(a).astype(np.float64) / _number(b).astype(np.float64), "float", present
    )


_COMPARE = {
    "<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
    "==": np.equal, "!=": np.not_equal,
}


def _compare(op: str, a: Column, b: Column, env: ColumnEnv) -> Column:
    present = _present(a, b)
    if (a.kind == "float") != (b.kind == "float"):
        whole = b if a.kind == "float" else a
        if _magnitude(whole, _live(env, present)) > _EXACT_FLOAT:
            raise NeedsRows  # Python compares an int with a float exactly
    return Column(_COMPARE[op](_number(a), _number(b)), "bool", present)


def _logic(op: str, a: Column, b: Column) -> Column:
    both = np.logical_and if op == "and" else np.logical_or
    return Column(both(_truth(a), _truth(b)), "bool", _present(a, b))


def _subject(expr: "Expr") -> str:
    if isinstance(expr, Field):
        return f"field {expr.name!r}{expr.where()}"
    return "an expression"


def _kind_of(value: Any) -> str:
    if isinstance(value, list):
        return "a vector"
    if isinstance(value, str):
        return "a char"
    return f"a {type(value).__name__}"


def require_number(expr: "Expr", value: Any, use: str) -> None:
    """Raise :class:`StatsError` unless ``value`` (what ``expr`` gave) is a
    number ``use`` can take."""
    if not isinstance(value, numbers.Real):
        raise StatsError(
            f"{_subject(expr)} holds {_kind_of(value)} value; {use} needs a number"
        )


def require_key(expr: "Expr", value: Any) -> None:
    """Raise :class:`StatsError` when ``value`` cannot be an x key."""
    if isinstance(value, list):
        raise StatsError(
            f"{_subject(expr)} holds {_kind_of(value)} value, which cannot be an x key"
        )


@dataclass(frozen=True)
class Literal(Expr):
    value: float

    def eval(self, env: Mapping[str, Any]) -> Any:
        return self.value

    def columns(self, env: ColumnEnv) -> Column:
        if isinstance(self.value, float):
            return Column(np.full(env.n, self.value), "float")
        if abs(self.value) >= _INT64:
            raise NeedsRows
        return Column(np.full(env.n, self.value, dtype=np.int64), "int")


@dataclass(frozen=True)
class Field(Expr):
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def eval(self, env: Mapping[str, Any]) -> Any:
        try:
            return env[self.name]
        except KeyError:
            raise StatsError(f"record has no field {self.name!r}{self.where()}") from None

    def where(self) -> str:
        """Where the field is named in the program, for diagnostics."""
        return f" (line {self.line}, column {self.col})" if self.line else ""

    def columns(self, env: ColumnEnv) -> Column:
        return env.field(self.name)

    def fields(self) -> set[str]:
        return {self.name}


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}

#: Operators that take numbers only ("==" and "!=" compare anything).
_NUMERIC = {"+": "arithmetic", "-": "arithmetic", "*": "arithmetic",
            "/": "arithmetic", "<": "a comparison", "<=": "a comparison",
            ">": "a comparison", ">=": "a comparison"}


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, env: Mapping[str, Any]) -> Any:
        try:
            left, right = self.left.eval(env), self.right.eval(env)
            use = _NUMERIC.get(self.op)
            if use is not None:
                require_number(self.left, left, use)
                require_number(self.right, right, use)
            return _BINOPS[self.op](left, right)
        except ZeroDivisionError:
            raise StatsError("division by zero in table expression") from None

    def columns(self, env: ColumnEnv) -> Column:
        a, b = self.left.columns(env), self.right.columns(env)
        if self.op == "/":
            return _divide(a, b, env)
        if self.op in _ARITH:
            return _arith(self.op, a, b, env)
        if self.op in _COMPARE:
            return _compare(self.op, a, b, env)
        return _logic(self.op, a, b)

    def fields(self) -> set[str]:
        return self.left.fields() | self.right.fields()


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def eval(self, env: Mapping[str, Any]) -> Any:
        return not bool(self.operand.eval(env))

    def columns(self, env: ColumnEnv) -> Column:
        col = self.operand.columns(env)
        return Column(~_truth(col), "bool", col.present)

    def fields(self) -> set[str]:
        return self.operand.fields()


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr

    def eval(self, env: Mapping[str, Any]) -> Any:
        value = self.operand.eval(env)
        require_number(self.operand, value, "arithmetic")
        return -value

    def columns(self, env: ColumnEnv) -> Column:
        col = self.operand.columns(env)
        if col.kind == "float":
            return Column(-col.values, "float", col.present)
        if _magnitude(col, _live(env, col.present)) >= _INT64:
            raise NeedsRows  # -(-2**63) leaves int64
        return Column(-_number(col), "int", col.present)

    def fields(self) -> set[str]:
        return self.operand.fields()


@dataclass(frozen=True)
class Bin(Expr):
    """bin(expr, lo, hi, n): equal-width binning with clamping."""

    operand: Expr
    lo: Expr
    hi: Expr
    n: Expr

    def eval(self, env: Mapping[str, Any]) -> int:
        value = self.operand.eval(env)
        lo = self.lo.eval(env)
        hi = self.hi.eval(env)
        n = self.n.eval(env)
        for expr, v in zip((self.operand, self.lo, self.hi, self.n), (value, lo, hi, n)):
            require_number(expr, v, "bin()")
        n = int(n)
        if n < 1 or hi <= lo:
            raise StatsError(f"bad bin() parameters lo={lo} hi={hi} n={n}")
        idx = int((value - lo) / ((hi - lo) / n))
        return max(0, min(idx, n - 1))

    def columns(self, env: ColumnEnv) -> Column:
        value, lo, hi, n = (
            e.columns(env) for e in (self.operand, self.lo, self.hi, self.n)
        )
        live = _live(env, _present(value, lo, hi, n))
        if n.kind == "float":  # int(n) truncates toward zero
            whole = np.trunc(n.values)
            fits = np.abs(whole) < _EXACT_FLOAT
            if not _on(fits, live).all():
                raise NeedsRows
            n = Column(np.where(fits, whole, 0).astype(np.int64), "int", n.present)
        if (
            not (_on(_number(n), live) >= 1).all()
            or _magnitude(n, live) > _EXACT_FLOAT
            or _on(_compare("<=", hi, lo, env).values, live).any()
        ):
            raise NeedsRows  # bad parameters: the row loop raises
        width = _divide(_arith("-", hi, lo, env), n, env)
        at = np.trunc(_divide(_arith("-", value, lo, env), width, env).values)
        finite = np.isfinite(at)
        if not _on(finite, live).all():
            raise NeedsRows  # int() of inf or nan raises
        top = (_number(n) - 1).astype(np.float64)
        idx = np.maximum(np.minimum(np.where(finite, at, 0.0), top), 0.0)
        return Column(idx.astype(np.int64), "int", _present(value, lo, hi, n))

    def fields(self) -> set[str]:
        return (
            self.operand.fields() | self.lo.fields() | self.hi.fields() | self.n.fields()
        )


# --------------------------------------------------------------- parser


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            where = ""
            if self.tokens:
                last = self.tokens[-1]
                where = f" after {last.text!r} at {last.where()}"
            raise StatsError(f"unexpected end of program{where}")
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise StatsError(
                f"expected {text!r} at {tok.where()}, got {tok.text!r}"
            )
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "name" and tok.text == word

    # Expression grammar: or_expr > and_expr > not > comparison > additive >
    # multiplicative > unary > atom.

    def parse_expr(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        node = self._and()
        while self.at_keyword("or"):
            self.next()
            node = BinOp("or", node, self._and())
        return node

    def _and(self) -> Expr:
        node = self._not()
        while self.at_keyword("and"):
            self.next()
            node = BinOp("and", node, self._not())
        return node

    def _not(self) -> Expr:
        if self.at_keyword("not"):
            self.next()
            return Not(self._not())
        return self._comparison()

    def _comparison(self) -> Expr:
        node = self._additive()
        tok = self.peek()
        if tok is not None and tok.text in ("<", "<=", ">", ">=", "==", "!="):
            self.next()
            node = BinOp(tok.text, node, self._additive())
        return node

    def _additive(self) -> Expr:
        node = self._multiplicative()
        while (tok := self.peek()) is not None and tok.text in ("+", "-"):
            self.next()
            node = BinOp(tok.text, node, self._multiplicative())
        return node

    def _multiplicative(self) -> Expr:
        node = self._unary()
        while (tok := self.peek()) is not None and tok.text in ("*", "/"):
            self.next()
            node = BinOp(tok.text, node, self._unary())
        return node

    def _unary(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.text == "-":
            self.next()
            return Neg(self._unary())
        return self._atom()

    def _atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            return Literal(float(tok.text) if "." in tok.text else int(tok.text))
        if tok.kind == "name":
            if tok.text == "bin":
                self.expect("(")
                operand = self.parse_expr()
                self.expect(",")
                lo = self.parse_expr()
                self.expect(",")
                hi = self.parse_expr()
                self.expect(",")
                n = self.parse_expr()
                self.expect(")")
                return Bin(operand, lo, hi, n)
            return Field(tok.text, tok.line, tok.col)
        if tok.text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise StatsError(f"unexpected token {tok.text!r} at {tok.where()}")


# --------------------------------------------------------------- programs


@dataclass(frozen=True)
class TableProgram:
    """One parsed ``table`` specification."""

    name: str
    condition: Expr | None
    xs: tuple[tuple[str, Expr], ...]
    ys: tuple[tuple[str, Expr, str], ...]

    def fields(self) -> set[str]:
        """All field names the table reads (for validation)."""
        out: set[str] = set()
        if self.condition is not None:
            out |= self.condition.fields()
        for _, expr in self.xs:
            out |= expr.fields()
        for _, expr, _ in self.ys:
            out |= expr.fields()
        return out


def parse_program(text: str) -> list[TableProgram]:
    """Parse a statistics program into table specifications."""
    parser = _Parser(tokenize(text))
    tables: list[TableProgram] = []
    while parser.peek() is not None:
        tables.append(_parse_table(parser))
    if not tables:
        raise StatsError("empty statistics program")
    return tables


def _parse_table(parser: _Parser) -> TableProgram:
    tok = parser.next()
    if tok.text != "table":
        raise StatsError(f"expected 'table' at {tok.where()}, got {tok.text!r}")
    name = ""
    condition: Expr | None = None
    xs: list[tuple[str, Expr]] = []
    ys: list[tuple[str, Expr, str]] = []
    while (tok := parser.peek()) is not None and not (
        tok.kind == "name" and tok.text == "table"
    ):
        key = parser.next()
        if key.kind != "name":
            raise StatsError(f"expected a keyword at {key.where()}, got {key.text!r}")
        parser.expect("=")
        if key.text == "name":
            name = parser.next().text
        elif key.text == "condition":
            parser.expect("(")
            condition = parser.parse_expr()
            parser.expect(")")
        elif key.text == "x":
            parser.expect("(")
            label = _parse_label(parser)
            parser.expect(",")
            xs.append((label, parser.parse_expr()))
            parser.expect(")")
        elif key.text == "y":
            parser.expect("(")
            label = _parse_label(parser)
            parser.expect(",")
            expr = parser.parse_expr()
            parser.expect(",")
            agg_tok = parser.next()
            if agg_tok.text not in AGGREGATES:
                raise StatsError(
                    f"unknown aggregate {agg_tok.text!r} at {agg_tok.where()}; "
                    f"pick one of {AGGREGATES}"
                )
            ys.append((label, expr, agg_tok.text))
            parser.expect(")")
        else:
            raise StatsError(f"unknown table keyword {key.text!r} at {key.where()}")
    if not name:
        raise StatsError("table needs a name")
    if not xs:
        raise StatsError(f"table {name!r} needs at least one x expression")
    if not ys:
        raise StatsError(f"table {name!r} needs at least one y expression")
    return TableProgram(name, condition, tuple(xs), tuple(ys))


def _parse_label(parser: _Parser) -> str:
    tok = parser.next()
    if tok.kind != "string":
        raise StatsError(f"expected a quoted label at {tok.where()}")
    return tok.text[1:-1]
