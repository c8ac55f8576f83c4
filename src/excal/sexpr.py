"""Scalar expression language for metric entries and form coefficients.

Grammar (operators by increasing precedence), part of the public
"excal-config v1" contract:

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := number | ident | ident "(" args ")" | "(" expr ")"

Lexical rules, shared with the operator language of opexpr: a number is an
ASCII decimal literal (2, 2., .5, 1e-3, 1.e5; "1e" reads as 1 then the name
e), so a non-ASCII digit such as "٣" is an unexpected character; an ident
is a Python identifier (str.isidentifier), the rule coordinate names obey;
whitespace separates tokens.

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
import re
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


# The one lexer of excal's two expression languages, this one and the
# operator language of opexpr: ASCII decimal literals, identifier names,
# one-character operators, the end of input, and any other character.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>(?:\w|[^\x00-\x7f\s])+)|(?P<op>[-+*/^(),])|(?P<eof>\Z)|(?P<bad>.))",
    re.S,
)
_KINDS = frozenset(("num", "name", "eof", *"+-*/^(),"))


def _name_length(run):
    """The length of the longest identifier, by str.isidentifier, that run
    starts with; load_config holds coordinate names to the same rule."""
    if run.isidentifier():
        return len(run)
    n = 0
    while n < len(run) and ("_" + run[n] if n else run[n]).isidentifier():
        n += 1
    return n


class _Cursor:
    """The tokens of src, read one at a time as (kind, text, offset): kind is
    "num", "name", "eof" or the operator character itself. A token whose
    kind is not in kinds, the language's own, is an unexpected character,
    raised when the cursor reaches it."""

    def __init__(self, src, kinds):
        self.src, self.kinds = src, kinds
        self.pos = 0
        self.tok = None

    def _scan(self):
        m = _TOKEN.match(self.src, self.pos)
        kind = m.lastgroup
        text, off = m.group(kind), m.start(kind)
        if kind == "op":
            kind = text
        elif kind == "name":
            n = _name_length(text)
            kind, text = ("name", text[:n]) if n else ("bad", text[0])
        if kind not in self.kinds:
            raise ExprSyntaxError(f"unexpected character {text[0]!r}", off)
        self.pos = off + len(text)
        return kind, text, off

    def peek(self):
        if self.tok is None:
            self.tok = self._scan()
        return self.tok

    def next(self):
        tok = self.peek()
        self.tok = None
        return tok

    def take(self, kinds, what):
        """The next token, which must be of one of kinds, what naming them."""
        kind, text, off = tok = self.next()
        if kind in kinds:
            return tok
        if kind == "eof":
            raise ExprSyntaxError("unexpected end of expression", off)
        raise ExprSyntaxError(f"expected {what}, found {text!r}", off)

    def end(self):
        kind, text, off = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"trailing input {text!r}", off)


def _nest(level, offset):
    """level, a depth or height reached at offset, within MAX_DEPTH."""
    if level > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", offset)
    return level


def _arguments(cur, item, depth):
    """The values of item(depth) over the list "(" item ("," item)* ")" whose
    "(" is cur's next token."""
    cur.next()
    args = [item(depth)]
    while cur.take((",", ")"), "',' or ')'")[0] == ",":
        args.append(item(depth))
    return args


class _Parser:
    """Recursive descent; each rule takes the depth at which its subtree
    starts and returns (node, height), so that both a deep recursion and a
    long left-leaning chain stop at MAX_DEPTH levels."""

    def __init__(self, src, var_names):
        self.cur = _Cursor(src, _KINDS)
        self.vars = {name: i for i, name in enumerate(var_names)}

    def parse(self):
        e, _ = self.expr(1)
        self.cur.end()
        return e

    def expr(self, depth):
        left, h = self.term(depth)
        while True:
            kind, _, off = self.cur.peek()
            if kind not in ("+", "-"):
                return left, h
            self.cur.next()
            right, hr = self.term(depth + 1)
            left, h = Bin(kind, left, right, off), _nest(max(h, hr) + 1, off)

    def term(self, depth):
        left, h = self.unary(depth)
        while True:
            kind, _, off = self.cur.peek()
            if kind not in ("*", "/"):
                return left, h
            self.cur.next()
            right, hr = self.unary(depth + 1)
            left, h = Bin(kind, left, right, off), _nest(max(h, hr) + 1, off)

    def unary(self, depth):
        kind, _, off = self.cur.peek()
        _nest(depth, off)
        if kind == "-":
            self.cur.next()
            arg, h = self.unary(depth + 1)
            return Neg(arg, off), _nest(h + 1, off)
        return self.power(depth)

    def power(self, depth):
        base, h = self.atom(depth)
        kind, _, off = self.cur.peek()
        if kind == "^":
            self.cur.next()
            exp, he = self.unary(depth + 1)
            return Bin("^", base, exp, off), _nest(max(h, he) + 1, off)
        return base, h

    def atom(self, depth):
        kind, text, off = self.cur.take(("num", "name", "("), "a number, a name or '('")
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"literal {text} is not a finite number", off)
            return Num(value, off), 1
        if kind == "(":
            # a parenthesised group counts as a level: it costs recursion
            e, h = self.expr(depth + 1)
            self.cur.take((")",), "')'")
            return e, _nest(h + 1, off)
        if self.cur.peek()[0] == "(":
            if text not in FUNCTIONS:
                raise UnknownIdentifier(text, off)
            args = _arguments(self.cur, self.expr, depth + 1)
            if len(args) != FUNCTIONS[text]:
                raise ArityError(f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}")
            h = max(ha for _, ha in args) + 1
            return Call(text, tuple(a for a, _ in args), off), _nest(h, off)
        if text in CONSTANTS:
            return Const(text, off), 1
        if text in self.vars:
            return Var(text, self.vars[text], off), 1
        raise UnknownIdentifier(text, off)


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
    a jet b keeps the power a jet, even when a is a number.  A jet b of
    several points is taken point by point, so each takes its own branch."""
    if isinstance(b, Jet):
        if b.c.ndim > 1:
            return _each_point(_pow, a, b)
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


def _each_point(fn, a, b):
    """fn(a, b) for a jet b of several points, each point's column taken
    alone, stacked; a is a number or a jet of b's points."""
    col = lambda x, i: Jet(x.space, x.c[:, i]) if isinstance(x, Jet) else x
    out = [fn(col(a, i), col(b, i)) for i in range(b.c.shape[1])]
    return Jet(out[0].space, np.stack([j.c for j in out], axis=-1))


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
