"""Shared fixture table and random-expression builder for the parser tests."""

import random

from fracvoigt import expr

# (source, variable name, binding, expected value)
PRECEDENCE_CASES = [
    ("1+2*3", "t", 0.0, 7.0),
    ("(1+2)*3", "t", 0.0, 9.0),
    ("-2^2", "t", 0.0, -4.0),
    ("2^3^2", "t", 0.0, 512.0),
    ("2^-1", "t", 0.0, 0.5),
    ("8/4/2", "t", 0.0, 1.0),
    ("8-3-2", "t", 0.0, 3.0),
    ("2*3^2", "t", 0.0, 18.0),
    ("-2*3", "t", 0.0, -6.0),
    ("--2", "t", 0.0, 2.0),
    ("1-(2-3)", "t", 0.0, 2.0),
    ("exp(0)", "t", 0.0, 1.0),
    ("log(exp(2))", "t", 0.0, 2.0),
    ("sqrt(9)", "t", 0.0, 3.0),
    ("abs(-5)", "t", 0.0, 5.0),
    ("pow(2,10)", "t", 0.0, 1024.0),
    ("sin(0)", "t", 0.0, 0.0),
    ("cos(0)", "t", 0.0, 1.0),
    ("1/(1+eps)", "eps", 1.0, 0.5),
    ("1/(1+eps)", "eps", 0.0, 1.0),
    ("2^0.5", "t", 0.0, 2.0**0.5),
    ("10/4", "t", 0.0, 2.5),
    ("3*(2+1)", "t", 0.0, 9.0),
    ("-(1+2)", "t", 0.0, -3.0),
    ("2^2^-1", "t", 0.0, 2.0**0.5),
    ("1e2+1", "t", 0.0, 101.0),
    ("2.5e-1*4", "t", 0.0, 1.0),
    ("t", "t", 3.5, 3.5),
    ("t^2-t", "t", 3.0, 6.0),
    ("pow(t,2)+1", "t", 2.0, 5.0),
    # unary minus beside every binary operator
    ("2*-3^2", "t", 0.0, -18.0),
    ("-2^-2", "t", 0.0, -0.25),
    ("2^-3*4", "t", 0.0, 0.5),
    ("2--3", "t", 0.0, 5.0),
    ("-2*-3", "t", 0.0, 6.0),
    ("8/-2/2", "t", 0.0, -2.0),
    ("-t^2", "t", 3.0, -9.0),
]


def random_expression(rng: random.Random, depth: int = 0):
    """Random expression tree over one variable named t, kept within ranges
    where evaluation stays finite on [0.1, 2]."""
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        if rng.random() < 0.5:
            return expr.Num(round(rng.uniform(0.1, 5.0), 3))
        return expr.Var("t")
    if roll < 0.45:
        return expr.Neg(random_expression(rng, depth + 1))
    if roll < 0.6:
        fn = rng.choice(["sin", "cos", "abs", "exp"])
        return expr.Call(fn, (random_expression(rng, depth + 1),))
    op = rng.choice(["+", "-", "*", "+", "-", "*", "/", "^"])
    left = random_expression(rng, depth + 1)
    right = random_expression(rng, depth + 1)
    if op == "/":
        right = expr.Call("abs", (right,))
        right = expr.BinOp("+", right, expr.Num(0.5))
    if op == "^":
        left = expr.BinOp("+", expr.Call("abs", (left,)), expr.Num(0.5))
        right = expr.Num(round(rng.uniform(-2.0, 2.0), 2))
    return expr.BinOp(op, left, right)
