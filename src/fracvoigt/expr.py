"""Arithmetic expression parser for stress histories and stress-strain laws.

Recursive descent over a small fixed grammar with one free variable:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | VAR | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

'^' binds tighter than unary minus (-2^2 evaluates to -4) and associates to
the right (2^3^2 is 512).  There is no implicit multiplication: "2t" is a
syntax error.  evaluate binds the variable to a float or to a whole array
(numpy ufuncs, one pass over the tree).  Evaluation never returns NaN or
infinity silently; any undefined or non-finite intermediate raises
EvaluationError naming the offending subexpression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError

__all__ = ["ParseError", "parse", "evaluate", "to_source", "FUNCTIONS"]

# function name -> arity
FUNCTIONS = {
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "sin": 1,
    "cos": 1,
    "abs": 1,
    "pow": 2,
}


class ParseError(ValueError):
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
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.lastgroup is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
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

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", node, self.parse_unary())
        return node

    def parse_atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text in FUNCTIONS:
                self.expect_op("(")
                args = [self.parse_expr()]
                while True:
                    k, t, _ = self.peek()
                    if k == "op" and t == ",":
                        self.advance()
                        args.append(self.parse_expr())
                    else:
                        break
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


def _check_finite(value, node: Expr):
    if not np.isfinite(value).all():
        raise EvaluationError(f"non-finite value in {to_source(node)!r}")
    return value


def evaluate(e: Expr, x):
    """Evaluate with the free variable bound to x.  A float gives a float;
    an array gives an array of its shape, computed by one pass over the
    tree with numpy ufuncs.  An array with an undefined or non-finite point
    raises the error of the scalar call at its first such point."""
    try:
        with np.errstate(all="ignore"):
            value = _eval(e, np.asarray(x, dtype=float))
    except EvaluationError:
        if np.ndim(x) == 0:
            raise
        for v in np.ravel(x):
            evaluate(e, float(v))
        raise
    if np.ndim(x) == 0:
        return float(value)
    return np.full(np.shape(x), value)


def _eval(e: Expr, x: np.ndarray):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return _check_finite(x, e)
    if isinstance(e, Neg):
        return -_eval(e.operand, x)
    if isinstance(e, BinOp):
        left = _eval(e.left, x)
        right = _eval(e.right, x)
        if e.op == "+":
            return _check_finite(left + right, e)
        if e.op == "-":
            return _check_finite(left - right, e)
        if e.op == "*":
            return _check_finite(left * right, e)
        if e.op == "/":
            if np.equal(right, 0.0).any():
                raise EvaluationError(f"division by zero in {to_source(e)!r}")
            return _check_finite(left / right, e)
        return _pow(left, right, e)
    if isinstance(e, Call):
        args = [_eval(a, x) for a in e.args]
        if e.func == "pow":
            return _pow(args[0], args[1], e)
        if e.func == "log":
            if np.less_equal(args[0], 0.0).any():
                raise EvaluationError(f"log of nonpositive value in {to_source(e)!r}")
            return _check_finite(np.log(args[0]), e)
        if e.func == "sqrt":
            if np.less(args[0], 0.0).any():
                raise EvaluationError(f"sqrt of negative value in {to_source(e)!r}")
            return np.sqrt(args[0])
        fn = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "abs": np.abs}[e.func]
        value = fn(args[0])
        if not np.isfinite(value).all():  # only exp can overflow
            raise EvaluationError(f"overflow in {to_source(e)!r}")
        return value
    raise TypeError(f"not an expression node: {e!r}")


def _pow(base, exponent, node: Expr):
    value = np.power(base, exponent)
    finite = np.isfinite(value)
    if not finite.all():
        # math.pow's two errors: a negative base to a non-integer power and
        # zero to a negative power are outside its domain, the rest overflows
        domain = np.any(np.isnan(value) | ((base == 0.0) & ~finite))
        reason = "math domain error" if domain else "math range error"
        raise EvaluationError(f"invalid power in {to_source(node)!r}: {reason}")
    return value


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return 5


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
        p = _PREC[e.op]
        # '^' is right-associative, everything else left-associative; the
        # non-associative side is parenthesized at equal precedence so the
        # printed text reparses to the identical tree
        if _prec(e.left) < p or (e.op == "^" and _prec(e.left) <= p):
            left = f"({left})"
        if _prec(e.right) < p or (e.op != "^" and _prec(e.right) <= p and isinstance(e.right, (BinOp, Neg))):
            right = f"({right})"
        return f"{left}{e.op}{right}"
    if isinstance(e, Call):
        return f"{e.func}({','.join(to_source(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")
