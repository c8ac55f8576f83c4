"""Prefix operator mini-language for identity checks and `excal eval`.

Grammar (whitespace-insensitive):

    expr  := NAME | NAME '(' expr (',' expr)* ')'

Tokens are read by the lexer of sexpr, so a NAME is any identifier, the rule
config form and coordinate names obey; a number or an arithmetic operator
is an unexpected character here.  An expression nests at most
sexpr.MAX_DEPTH levels deep.

Built-in operator heads: d(F), delta(F), eps(F, G), i(V, F), lie(V, F),
sharp(F), diamond(F), nablaF(F), comm(OP, OP, F), acomm(OP, OP, F).
F and G name scalar forms, V names tangent-valued fields; in operator
position, `d` and `delta` appear bare while eps/i/lie drop their last
argument (e.g. comm(delta, eps(Omega), beta)).  Leaf names resolve to
bound inputs, then config forms, then structure tensors.
"""

import functools

from .alt import AltValue, VecAltValue, interior, wedge
from .errors import ArityError, DegreeError, UnknownIdentifier
from .operators import (
    Operator,
    codiff,
    ext_d,
    graded_comm,
    lie_vec,
    omega_diamond,
    omega_nabla,
    op_d,
    op_delta,
    op_eps,
    op_interior,
    op_lie,
    sharp_field,
)
from .sexpr import _arguments, _Cursor, _nest

_KINDS = frozenset(("name", "eof", *"(),"))


class Node:
    __slots__ = ("name", "args", "offset")

    def __init__(self, name, args, offset):
        self.name = name
        self.args = args  # a tuple, or None for a bare name
        self.offset = offset


@functools.lru_cache(maxsize=256)
def parse(src):
    """The Node tree of src, shared between calls with the same string, so
    no caller may change it; a syntax error is raised on every call."""
    cur = _Cursor(src, _KINDS)

    def expr(depth):
        _, name, off = cur.take(("name",), "a name")
        if cur.peek()[0] != "(":
            return Node(name, None, off)
        _nest(depth + 1, off)
        return Node(name, tuple(_arguments(cur, expr, depth + 1)), off)

    root = expr(1)
    cur.end()
    return root


_HEADS = {
    "d": 1,
    "delta": 1,
    "eps": 2,
    "i": 2,
    "lie": 2,
    "sharp": 1,
    "diamond": 1,
    "nablaF": 1,
    "comm": 3,
    "acomm": 3,
}


def _want_form(v, node):
    if isinstance(v, AltValue):
        return v
    raise DegreeError(f"{node.name!r} needs a scalar form argument")


def _want_vec(v, node):
    if isinstance(v, VecAltValue):
        return v
    raise DegreeError(f"{node.name!r} needs a tangent-valued argument")


def _want_op(v, node):
    if isinstance(v, Operator):
        return v
    raise ArityError(f"argument of {node.name!r} is not an operator")


def evaluate(node, ctx, env):
    """Evaluate a parsed expression at a chart context.

    env maps names to FormField/VecFormField (or already-evaluated
    values); results are AltValue, VecAltValue, or Operator (when an
    operator head is partially applied in comm/acomm position).
    """
    if node.args is None:
        if node.name == "d":
            return op_d()
        if node.name == "delta":
            return op_delta()
        return _resolve(node, ctx, env)

    head, args = node.name, node.args
    if head not in _HEADS:
        raise UnknownIdentifier(head, node.offset)
    full = _HEADS[head]
    partial = head in ("eps", "i", "lie") and len(args) == full - 1
    if len(args) != full and not partial:
        raise ArityError(
            f"{head!r} takes {full} arguments"
            + (" (or one in operator position)" if head in ("eps", "i", "lie") else "")
            + f", got {len(args)}"
        )
    vals = [evaluate(a, ctx, env) for a in args]

    if head == "d":
        return ext_d(ctx, _want_form(vals[0], node))
    if head == "delta":
        return codiff(ctx, _want_form(vals[0], node))
    if head == "sharp":
        return sharp_field(ctx, _want_form(vals[0], node))
    if head == "diamond":
        return omega_diamond(ctx, _want_form(vals[0], node))
    if head == "nablaF":
        return omega_nabla(ctx, _want_form(vals[0], node))
    if head == "eps":
        w = _want_form(vals[0], node)
        if partial:
            return op_eps(w)
        return wedge(w, _want_form(vals[1], node))
    if head == "i":
        phi = _want_vec(vals[0], node)
        if partial:
            return op_interior(phi)
        return interior(phi, _want_form(vals[1], node))
    if head == "lie":
        phi = _want_vec(vals[0], node)
        if partial:
            return op_lie(phi)
        return lie_vec(ctx, phi, _want_form(vals[1], node))
    # comm / acomm
    A = _want_op(vals[0], node)
    B = _want_op(vals[1], node)
    return graded_comm(ctx, A, B, _want_form(vals[2], node), anti=(head == "acomm"))


def _resolve(node, ctx, env):
    name = node.name
    if name in env:
        v = env[name]
    elif name in ctx.geometry.forms:
        v = ctx.geometry.forms[name]
    elif name in ctx.geometry.structures:
        return ctx.structure(name)
    else:
        raise UnknownIdentifier(name, node.offset)
    if hasattr(v, "at"):
        return v.at(ctx)
    return v


def evaluate_str(src, ctx, env=None):
    return evaluate(parse(src), ctx, env or {})
