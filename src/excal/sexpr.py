"""Scalar expression language for metric entries and form coefficients.

Grammar (operators by increasing precedence), part of the public
"excal-config v1" contract:

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := number | ident | ident "(" args ")" | "(" expr ")"

Known functions: sin cos tan exp log sqrt pow; constants: pi, e.  A parsed
tree nests at most MAX_DEPTH levels (a parenthesised group counts as one),
so neither parsing nor evaluation can exhaust the Python stack.
One walk evaluates an expression either to a plain float or to a jet.
Literals and constants evaluate as numbers, so jet arithmetic starts only
at a coordinate; an expression or subexpression free of coordinates stays
a float.
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
from .jets import Jet, jet_apply

FUNCTIONS = {"sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1, "sqrt": 1, "pow": 2}
CONSTANTS = {"pi": math.pi, "e": math.e}
# levels a parsed tree may nest, a parenthesised group included; the trees
# excal builds itself reach about 30 (random_form over 6 coordinates)
MAX_DEPTH = 100


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
    """Recursive descent; each rule takes the depth at which its subtree
    starts and returns (node, height), so that both a deep recursion and a
    long left-leaning chain stop at MAX_DEPTH levels."""

    def __init__(self, src, var_names):
        self.toks = _Tokenizer(src)
        self.vars = {name: i for i, name in enumerate(var_names)}

    def parse(self):
        e, _ = self.expr(1)
        kind, _, off = self.toks.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected token {kind!r}", off)
        return e

    @staticmethod
    def _level(h, off):
        """h, a depth or height reached at offset off, within MAX_DEPTH."""
        if h > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", off)
        return h

    def expr(self, depth):
        left, h = self.term(depth)
        while True:
            kind, _, off = self.toks.peek()
            if kind not in ("+", "-"):
                return left, h
            self.toks.next()
            right, hr = self.term(depth + 1)
            left, h = Bin(kind, left, right, off), self._level(max(h, hr) + 1, off)

    def term(self, depth):
        left, h = self.unary(depth)
        while True:
            kind, _, off = self.toks.peek()
            if kind not in ("*", "/"):
                return left, h
            self.toks.next()
            right, hr = self.unary(depth + 1)
            left, h = Bin(kind, left, right, off), self._level(max(h, hr) + 1, off)

    def unary(self, depth):
        kind, _, off = self.toks.peek()
        self._level(depth, off)
        if kind == "-":
            self.toks.next()
            arg, h = self.unary(depth + 1)
            return Neg(arg, off), self._level(h + 1, off)
        return self.power(depth)

    def power(self, depth):
        base, h = self.atom(depth)
        kind, _, off = self.toks.peek()
        if kind == "^":
            self.toks.next()
            exp, he = self.unary(depth + 1)
            return Bin("^", base, exp, off), self._level(max(h, he) + 1, off)
        return base, h

    def atom(self, depth):
        kind, text, off = self.toks.next()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"literal {text} is not a finite number", off)
            return Num(value, off), 1
        if kind == "(":
            # a parenthesised group counts as a level: it costs recursion
            e, h = self.expr(depth + 1)
            k2, _, o2 = self.toks.next()
            if k2 != ")":
                raise ExprSyntaxError("expected ')'", o2)
            return e, self._level(h + 1, off)
        if kind == "ident":
            nxt = self.toks.peek()
            if nxt[0] == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifier(text, off)
                self.toks.next()
                args = [self.expr(depth + 1)]
                while True:
                    k2, _, o2 = self.toks.next()
                    if k2 == ")":
                        break
                    if k2 != ",":
                        raise ExprSyntaxError("expected ',' or ')'", o2)
                    args.append(self.expr(depth + 1))
                if len(args) != FUNCTIONS[text]:
                    raise ArityError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}"
                    )
                h = max(ha for _, ha in args) + 1
                return Call(text, tuple(a for a, _ in args), off), self._level(h, off)
            if text in CONSTANTS:
                return Const(text, off), 1
            if text in self.vars:
                return Var(text, self.vars[text], off), 1
            raise UnknownIdentifier(text, off)
        raise ExprSyntaxError(f"unexpected token {kind!r}", off)


def parse(src, var_names):
    """Parse an expression over the given ordered coordinate names."""
    return _Parser(src, var_names).parse()


# -- evaluation ----------------------------------------------------------


def eval_jet(e, coords):
    """Evaluate an expression with coordinate i bound to coords[i], a chart
    context's coordinate jets: a jet of their order when it reads a
    coordinate, else a plain float, as the constant rule of jets has it."""
    # an overflowing product is refused as a typed error where it is used
    with np.errstate(over="ignore", invalid="ignore"):
        return _eval(e, coords)


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
        return op(*args) if op else jet_apply(fn, *args)
    except (DomainError, DivisionByZeroAtPoint) as exc:
        if not getattr(exc, "span", None):
            exc.span = e.offset
        raise


def _literal(e):
    """The value of a number leaf, Num or Neg(Num) holding a float (the
    parser reads -0.5 as Neg(Num(0.5))), else None."""
    if isinstance(e, Neg) and isinstance(e.arg, Num) and type(e.arg.value) is float:
        return -e.arg.value
    if isinstance(e, Num) and type(e.value) is float:
        return e.value
    return None


def _term(e):
    """(c, monomial) for a term c, c*x_a or (c*x_a)*x_b with c a number leaf,
    the monomial being (), (a,) or (a, b); else None."""
    mono = []
    while isinstance(e, Bin) and e.op == "*" and isinstance(e.right, Var) and len(mono) < 2:
        mono.insert(0, e.right.index)
        e = e.left
    c = _literal(e)
    return None if c is None else (c, tuple(mono))


def quadratic_terms(e):
    """The terms [(c, monomial)] of e, in the order the walker sums them, when
    e is a left-to-right sum of c, c*x_a and (c*x_a)*x_b terms with at least
    one variable; else None.

    None also for a bare Var (the walker returns the coordinate jet itself),
    a Const, a Call, a / or ^, a cubic term, x_a*c, and a sum free of
    coordinates, which must stay a float by the constant rule.
    """
    terms = []
    while isinstance(e, Bin) and e.op == "+":
        terms.append(_term(e.right))
        e = e.left
    terms.append(_term(e))
    if None in terms or not any(m for _, m in terms):
        return None
    return terms[::-1]


def _div(a, b):
    if not isinstance(b, Jet) and b == 0.0:
        raise DivisionByZeroAtPoint("division by zero")
    return a / b


def _pow(a, b):
    """a^b: exp(b log a) for a non-constant jet b, else a power by a number;
    a jet b keeps the power a jet, even when a is a number."""
    if isinstance(b, Jet):
        if b.c[1:].any():
            return jet_apply("exp", b * jet_apply("log", a))
        if not isinstance(a, Jet):
            return b * 0.0 + _pow(a, b.value)
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
