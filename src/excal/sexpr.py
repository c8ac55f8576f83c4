"""Scalar expression language for metric entries and form coefficients.

Grammar (operators by increasing precedence), part of the public
"excal-config v1" contract:

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := number | ident | ident "(" args ")" | "(" expr ")"

Known functions: sin cos tan exp log sqrt pow; constants: pi, e.
One walk evaluates an expression either to a plain float or to a jet.
Literals and constants evaluate as numbers, so jet arithmetic starts only
at a coordinate; a subexpression free of coordinates stays a float.
"""

import math
import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    ArityError,
    DivisionByZeroAtPoint,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifier,
)
from .jets import Jet, jet_apply, jet_const, jet_var

FUNCTIONS = {"sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1, "sqrt": 1, "pow": 2}
CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = 0


@dataclass(frozen=True)
class Const:
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    index: int
    offset: int = 0


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    offset: int = 0


@dataclass(frozen=True)
class Neg:
    arg: "Expr"
    offset: int = 0


@dataclass(frozen=True)
class Call:
    fn: str
    args: Tuple["Expr", ...]
    offset: int = 0


Expr = (Num, Const, Var, Bin, Neg, Call)


class _Tokenizer:
    def __init__(self, src):
        self.src = src
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.src):
            return ("eof", "", self.pos)
        c = self.src[self.pos]
        start = self.pos
        if c.isdigit() or (c == "." and self.pos + 1 < len(self.src) and self.src[self.pos + 1].isdigit()):
            j = self.pos
            seen_dot = seen_exp = False
            while j < len(self.src):
                ch = self.src[j]
                if ch.isdigit():
                    j += 1
                elif ch == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif ch in "eE" and not seen_exp and j > self.pos:
                    if j + 1 < len(self.src) and (
                        self.src[j + 1].isdigit()
                        or (self.src[j + 1] in "+-" and j + 2 < len(self.src) and self.src[j + 2].isdigit())
                    ):
                        seen_exp = True
                        j += 2 if self.src[j + 1] in "+-" else 1
                    else:
                        break
                else:
                    break
            return ("num", self.src[start:j], start)
        if c.isalpha() or c == "_":
            j = self.pos
            while j < len(self.src) and (self.src[j].isalnum() or self.src[j] == "_"):
                j += 1
            return ("ident", self.src[start:j], start)
        if c in "+-*/^(),":
            return (c, c, start)
        raise ExprSyntaxError(f"unexpected character {c!r}", start)

    def next(self):
        tok = self.peek()
        self.pos = tok[2] + len(tok[1])
        return tok


class _Parser:
    def __init__(self, src, var_names):
        self.toks = _Tokenizer(src)
        self.vars = {name: i for i, name in enumerate(var_names)}

    def parse(self):
        e = self.expr()
        kind, _, off = self.toks.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected token {kind!r}", off)
        return e

    def expr(self):
        left = self.term()
        while True:
            kind, _, off = self.toks.peek()
            if kind in ("+", "-"):
                self.toks.next()
                left = Bin(kind, left, self.term(), off)
            else:
                return left

    def term(self):
        left = self.unary()
        while True:
            kind, _, off = self.toks.peek()
            if kind in ("*", "/"):
                self.toks.next()
                left = Bin(kind, left, self.unary(), off)
            else:
                return left

    def unary(self):
        kind, _, off = self.toks.peek()
        if kind == "-":
            self.toks.next()
            return Neg(self.unary(), off)
        return self.power()

    def power(self):
        base = self.atom()
        kind, _, off = self.toks.peek()
        if kind == "^":
            self.toks.next()
            return Bin("^", base, self.unary(), off)
        return base

    def atom(self):
        kind, text, off = self.toks.next()
        if kind == "num":
            return Num(float(text), off)
        if kind == "(":
            e = self.expr()
            k2, _, o2 = self.toks.next()
            if k2 != ")":
                raise ExprSyntaxError("expected ')'", o2)
            return e
        if kind == "ident":
            nxt = self.toks.peek()
            if nxt[0] == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifier(text, off)
                self.toks.next()
                args = [self.expr()]
                while True:
                    k2, _, o2 = self.toks.next()
                    if k2 == ")":
                        break
                    if k2 != ",":
                        raise ExprSyntaxError("expected ',' or ')'", o2)
                    args.append(self.expr())
                if len(args) != FUNCTIONS[text]:
                    raise ArityError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}"
                    )
                return Call(text, tuple(args), off)
            if text in CONSTANTS:
                return Const(text, off)
            if text in self.vars:
                return Var(text, self.vars[text], off)
            raise UnknownIdentifier(text, off)
        raise ExprSyntaxError(f"unexpected token {kind!r}", off)


def parse(src, var_names):
    """Parse an expression over the given ordered coordinate names."""
    return _Parser(src, var_names).parse()


# -- evaluation ----------------------------------------------------------


def eval_jet(e, p, order):
    """Evaluate an expression to a jet at point p."""
    n = len(p)
    # an overflowing product is refused as a typed error where it is used
    with np.errstate(over="ignore", invalid="ignore"):
        v = _eval(e, [jet_var(p, i, order) for i in range(n)])
    return v if isinstance(v, Jet) else jet_const(v, n, order)


def eval_value(e, p):
    """Plain float evaluation at point p."""
    return _eval(e, [float(v) for v in p])


def _eval(e, xs):
    """The value of e with coordinate i bound to xs[i], a float or a jet."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Var):
        if e.index >= len(xs):
            raise ArityError(f"point has {len(xs)} coordinates, expression uses {e.name}")
        return xs[e.index]
    if isinstance(e, Neg):
        return -_eval(e.arg, xs)
    if isinstance(e, Bin):
        fn, args = e.op, (_eval(e.left, xs), _eval(e.right, xs))
    elif isinstance(e, Call):
        fn, args = e.fn, [_eval(a, xs) for a in e.args]
    else:
        raise TypeError(f"not an expression node: {e!r}")
    try:
        op = _ARITH.get(fn)
        return op(*args) if op else _apply(fn, *args)
    except (DomainError, DivisionByZeroAtPoint) as exc:
        if not getattr(exc, "span", None):
            exc.span = e.offset
        raise


def _div(a, b):
    if not isinstance(b, Jet) and b == 0.0:
        raise DivisionByZeroAtPoint("division by zero")
    return a / b


def _apply(fn, x):
    """An elementary function of a jet, or of a number through math."""
    if isinstance(x, Jet):
        return jet_apply(fn, x)
    if fn in ("log", "sqrt") and x <= 0.0:
        raise DomainError(fn, x)
    try:
        return getattr(math, fn)(x)
    except (OverflowError, ValueError):  # math range and domain errors
        raise DomainError(fn, x)


def _pow(a, b):
    """a^b: exp(b log a) for a non-constant jet b, else a power by a number."""
    if isinstance(b, Jet):
        if b.c[1:].any():
            return _apply("exp", b * _apply("log", a))
        b = b.value
    if isinstance(a, Jet):
        return a**b
    if a <= 0.0 and not float(b).is_integer():
        raise DomainError("pow", a)
    if a == 0.0 and b < 0:
        raise DivisionByZeroAtPoint("zero raised to negative power")
    try:
        return a**b
    except OverflowError:
        raise DomainError("pow", a)


_ARITH = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _pow, "pow": _pow,
}


# -- pretty printer ------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _fmt_num(v):
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _pp(e):
    """Return (text, precedence)."""
    if isinstance(e, Num):
        if e.value < 0:
            return f"-{_fmt_num(-e.value)}", _PREC["neg"]
        return _fmt_num(e.value), _PREC["atom"]
    if isinstance(e, Const):
        return e.name, _PREC["atom"]
    if isinstance(e, Var):
        return e.name, _PREC["atom"]
    if isinstance(e, Neg):
        t, p = _pp(e.arg)
        if p < _PREC["neg"]:
            t = f"({t})"
        return f"-{t}", _PREC["neg"]
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_pp(a)[0] for a in e.args)})", _PREC["atom"]
    if isinstance(e, Bin):
        lp = _PREC[e.op]
        lt, lq = _pp(e.left)
        rt, rq = _pp(e.right)
        # left-assoc except ^, which is right-assoc with unary-capable rhs
        if e.op == "^":
            if lq <= lp:
                lt = f"({lt})"
            if rq < _PREC["neg"]:
                rt = f"({rt})"
        else:
            if lq < lp:
                lt = f"({lt})"
            if rq <= lp:
                rt = f"({rt})"
        return f"{lt} {e.op} {rt}" if e.op in "+-" else f"{lt}{e.op}{rt}", lp
    raise TypeError(f"not an expression node: {e!r}")


def pretty(e):
    return _pp(e)[0]
