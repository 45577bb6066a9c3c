"""Arithmetic expression parser for stress histories and stress-strain laws.

A small fixed grammar with one free variable:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | VAR | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

'^' binds tighter than unary minus (-2^2 evaluates to -4) and associates to
the right (2^3^2 is 512).  There is no implicit multiplication: "2t" is a
syntax error.  One table, _PREC, holds these levels: the parser climbs it
(precedence climbing; Norvell, "Parsing expressions by recursive descent",
1999) and to_source takes its parentheses from it.  evaluate binds the
variable to a float or to a whole array (numpy ufuncs, one pass over the
tree).  Evaluation never returns NaN or infinity.  A numeric literal past
the float range is a ParseError and a non-finite variable raises
EvaluationError, so every operand is finite; then one rule holds at every
node: a floating-point flag other than underflow, which IEEE 754 raises
exactly where a value of finite operands is infinite or undefined, raises
EvaluationError naming the subexpression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError, FracvoigtError

__all__ = ["ParseError", "parse", "evaluate", "to_source", "FUNCTIONS"]

# function name -> numpy function
_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "pow": np.power,
}
# function name -> arity
FUNCTIONS = {name: fn.nin for name, fn in _FUNCS.items()}

# binary operator -> numpy function
_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}

# numpy function -> the message of the EvaluationError raised where it
# raises numpy's divide-by-zero or invalid flag (_UNDEFINED) or its
# overflow flag (_OVERFLOW); {!r} is the subexpression, and a function not
# listed names a non-finite value
_UNDEFINED = {
    np.divide: "division by zero in {!r}",
    np.log: "log of nonpositive value in {!r}",
    np.sqrt: "sqrt of negative value in {!r}",
    np.power: "invalid power in {!r}: math domain error",
}
_OVERFLOW = {np.exp: "overflow in {!r}", np.power: "invalid power in {!r}: math range error"}
_NON_FINITE = "non-finite value in {!r}"

# binding power of each binary operator and of unary minus; '^' alone is
# right-associative
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


class ParseError(FracvoigtError, ValueError):
    """Syntax or unknown-identifier error, with the byte offset in src."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S)"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(src):  # whitespace matches no alternative
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], var_name: str):
        self.tokens = tokens
        self.var_name = var_name
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", pos)
        self.advance()

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """An operand followed by every binary operator that binds at
        min_prec or tighter."""
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            node = Neg(self.parse_expr(_PREC["neg"]))
        else:
            node = self.parse_atom()
        while True:
            kind, text, _ = self.peek()
            prec = _PREC.get(text, 0) if kind == "op" else 0
            if prec < min_prec:
                return node
            self.advance()
            node = BinOp(text, node, self.parse_expr(prec + (text != "^")))

    def parse_atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if np.isinf(value):  # 1e-999 rounds to 0.0 and is accepted
                raise ParseError(f"number {text!r} is too large for a float", pos)
            return Num(value)
        if kind == "name":
            if text in FUNCTIONS:
                self.expect_op("(")
                args = [self.parse_expr()]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.parse_expr())
                self.expect_op(")")
                arity = FUNCTIONS[text]
                if len(args) != arity:
                    raise ParseError(
                        f"{text} takes {arity} argument(s), got {len(args)}", pos
                    )
                return Call(text, tuple(args))
            if text == self.var_name:
                return Var(text)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def parse(src: str, var_name: str) -> Expr:
    """Parse src into an expression tree whose single free variable is
    var_name; any other identifier is a ParseError."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(_tokenize(src), var_name)
    node = p.parse_expr()
    kind, text, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text!r}", pos)
    return node


def _defined(out: np.ndarray) -> bool:
    """Whether every value of the array out is real and finite."""
    return out.dtype.kind != "c" and bool(np.isfinite(out).all())


def _first_failure(fn, values: np.ndarray, errors) -> int:
    """Index of the first point of the 1-d array values where fn fails,
    given that fn maps arrays elementwise and fails on all of values: it
    raises one of errors or returns a value that is not _defined.  Windows
    that double in length, then halve, find a first failure at index i in
    about 2 log2(i + 1) calls of fn on about 3 i points in all."""

    def fails(lo: int, hi: int) -> bool:
        try:
            return not _defined(np.asarray(fn(values[lo:hi])))
        except errors:
            return True

    lo, hi = 0, 1  # values[:lo] pass; values[lo:hi] is the next window
    while hi < len(values) and not fails(lo, hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, len(values))  # values[lo:hi] holds a failure
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fails(lo, mid) else (mid, hi)
    return lo


def evaluate(e: Expr, x):
    """Evaluate with the free variable bound to x.  A float gives a float;
    an array gives an array of its shape, computed by one pass over the
    tree with numpy ufuncs.  A non-finite x where the tree reads the
    variable, and a floating-point flag other than underflow at a node,
    raise EvaluationError naming that subexpression.  An array raises the
    error of the scalar call at its first bad point (_first_failure)."""
    with np.errstate(all="call", under="ignore", call=_raise_flag):
        try:
            value = _eval(e, np.asarray(x, dtype=float))
        except EvaluationError:
            if np.ndim(x) == 0:
                raise
            flat = np.ravel(np.asarray(x, dtype=float))
            bad = _first_failure(lambda v: _eval(e, v), flat, EvaluationError)
            evaluate(e, float(flat[bad]))
            raise
    if np.ndim(x) == 0:
        return float(value)
    return np.full(np.shape(x), value)


def _raise_flag(kind: str, flag: int):
    """The errstate call of evaluate: flag is the bitmask of the flags
    numpy raised (1 divide-by-zero, 2 overflow, 8 invalid)."""
    raise FloatingPointError(flag)


def _eval(e: Expr, x: np.ndarray):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if not np.isfinite(x).all():
            raise EvaluationError(_NON_FINITE.format(e.name))
        return x
    if isinstance(e, Neg):
        return -_eval(e.operand, x)
    if isinstance(e, BinOp):
        fn, args = _BINOPS[e.op], (_eval(e.left, x), _eval(e.right, x))
    elif isinstance(e, Call):
        fn, args = _FUNCS[e.func], [_eval(a, x) for a in e.args]
    else:
        raise TypeError(f"not an expression node: {e!r}")
    try:
        return fn(*args)
    except FloatingPointError as exc:
        messages = _UNDEFINED if exc.args[0] & (1 | 8) else _OVERFLOW
        raise EvaluationError(messages.get(fn, _NON_FINITE).format(to_source(e))) from None


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return 5  # an atom binds tightest


def to_source(e: Expr) -> str:
    """Render back to parseable text; reparsing yields an expression with
    identical evaluation."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_source(e.operand)
        if _prec(e.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        left = to_source(e.left)
        right = to_source(e.right)
        p, right_assoc = _PREC[e.op], e.op == "^"
        # at equal precedence the side the parser does not group is
        # parenthesized, so the printed text reparses to the identical tree
        if _prec(e.left) < p + right_assoc:
            left = f"({left})"
        if _prec(e.right) < p + (not right_assoc):
            right = f"({right})"
        return f"{left}{e.op}{right}"
    if isinstance(e, Call):
        return f"{e.func}({','.join(to_source(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")
