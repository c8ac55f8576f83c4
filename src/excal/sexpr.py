"""Scalar expression language for metric entries and form coefficients.

Grammar (operators by increasing precedence), part of the public
"excal-config v1" contract:

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := number | ident | ident "(" args ")" | "(" expr ")"

Known functions: sin cos tan exp log sqrt pow; constants: pi, e.
Expressions evaluate either to plain floats or to jets.
"""

import math
from dataclasses import dataclass
from typing import Tuple

from .errors import (
    ArityError,
    DivisionByZeroAtPoint,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifier,
)
from .jets import jet_apply, jet_const, jet_var

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


def _annotate(exc, node):
    if isinstance(exc, (DomainError, DivisionByZeroAtPoint)) and not getattr(exc, "span", None):
        exc.span = node.offset
    return exc


def eval_jet(e, p, order):
    """Evaluate an expression to a jet at point p."""
    n = len(p)
    if isinstance(e, Num):
        return jet_const(e.value, n, order)
    if isinstance(e, Const):
        return jet_const(CONSTANTS[e.name], n, order)
    if isinstance(e, Var):
        if e.index >= n:
            raise ArityError(f"point has {n} coordinates, expression uses {e.name}")
        return jet_var(p, e.index, order)
    if isinstance(e, Neg):
        return -eval_jet(e.arg, p, order)
    if isinstance(e, Bin):
        a = eval_jet(e.left, p, order)
        b = eval_jet(e.right, p, order)
        try:
            if e.op == "^":
                return _jet_pow(a, b)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                return a / b
        except (DomainError, DivisionByZeroAtPoint) as exc:
            raise _annotate(exc, e)
    if isinstance(e, Call):
        args = [eval_jet(a, p, order) for a in e.args]
        try:
            if e.fn == "pow":
                base, expo = args
                return _jet_pow(base, expo)
            return jet_apply(e.fn, args[0])
        except (DomainError, DivisionByZeroAtPoint) as exc:
            raise _annotate(exc, e)
    raise TypeError(f"not an expression node: {e!r}")


def _jet_pow(a, b):
    """General power a^b = exp(b log a) unless b is constant; an integral
    constant exponent keeps integer-power semantics at value <= 0."""
    if not b.c[1:].any():
        r = b.value
        return a ** (int(r) if r.is_integer() else r)
    return jet_apply("exp", b * jet_apply("log", a))


def eval_value(e, p):
    """Plain float evaluation (order-0 specialization of eval_jet)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Var):
        return float(p[e.index])
    if isinstance(e, Neg):
        return -eval_value(e.arg, p)
    if isinstance(e, Bin):
        a = eval_value(e.left, p)
        b = eval_value(e.right, p)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise _annotate(DivisionByZeroAtPoint("division by zero"), e)
            return a / b
        if e.op == "^":
            return _float_pow(a, b, e)
    if isinstance(e, Call):
        args = [eval_value(a, p) for a in e.args]
        try:
            if e.fn == "pow":
                return _float_pow(args[0], args[1], e)
            if e.fn in ("log", "sqrt") and args[0] <= 0.0:
                raise DomainError(e.fn, args[0])
            return getattr(math, e.fn)(args[0])
        except (OverflowError, ValueError):  # math range and domain errors
            raise _annotate(DomainError(e.fn, args[0]), e)
        except DomainError as exc:
            raise _annotate(exc, e)
    raise TypeError(f"not an expression node: {e!r}")


def _float_pow(a, b, node):
    if a <= 0.0 and not float(b).is_integer():
        raise _annotate(DomainError("pow", a), node)
    if a == 0.0 and b < 0:
        raise _annotate(DivisionByZeroAtPoint("zero raised to negative power"), node)
    try:
        return a**b
    except OverflowError:
        raise _annotate(DomainError("pow", a), node)


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
