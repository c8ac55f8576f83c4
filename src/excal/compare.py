"""Tolerance comparison of alternating values, shared by catalog and verifier.

Pass criterion: abs_err <= atol + rtol * scale with
scale = max(|lhs coeff|, |rhs coeff|, 1); the scale floor avoids false
failures on near-zero identities and false passes on large magnitudes.
A non-finite coefficient on either side passes under no tolerance: the
comparison raises NonFiniteValue, naming where it sits, and so does a pair
of finite coefficients whose difference overflows.

A comparison is one pass over the value rows of all its leaves at once:
the max of |coeff| is NaN or infinite when any coefficient is, so a finite
scale clears every coefficient, and max |lhs - rhs| is the error; a max
does not depend on the order of its terms, so a leaf-by-leaf scan gives
the same floats.  Only a call whose scale or error is not finite scans
leaf by leaf (_first_non_finite), to name the coefficient.
"""

import numpy as np

from .alt import _basis
from .errors import DegreeError, NonFiniteValue, ShapeMismatch

DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-8
# |lhs - rhs| <= 2 * scale, so no difference overflows below this scale
_SAFE_SCALE = np.finfo(float).max / 2


def alt_errors(lhs, rhs):
    """(max_abs_err, scale) between two AltValue/VecAltValue operands or
    parallel lists of them, over every point they hold; raises
    NonFiniteValue on a NaN or infinity."""
    return _errors(lhs, rhs)


def _first_failure(pairs, points, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL):
    """(point, err) at the first point where a pair (lhs, rhs) in pairs is
    outside tolerance, each point alone as alt_errors compares it, else None;
    a NonFiniteValue names its point.  It is how an evaluation checks its own
    values (catalog entries, fn_decompose), apart from a report's alt_errors."""
    for i, p in enumerate(points):
        for lhs, rhs in pairs:
            try:
                err, scale = _errors(_at_point(lhs, i), _at_point(rhs, i))
            except NonFiniteValue as exc:
                raise NonFiniteValue(f"{exc} at {p}") from None
            if exceeds(err, scale, atol, rtol):
                return p, err
    return None


def _at_point(value, i):
    """The one-point value, or list of them, of a value at point i."""
    if isinstance(value, (list, tuple)):
        return [_at_point(v, i) for v in value]
    return value.point(i)


def _errors(lhs, rhs):
    """The body of alt_errors; _first_failure calls it directly, so that an
    evaluation's own checks are not alt_errors calls."""
    rows = [_values(lv, rv) for _, lv, rv in _leaves(lhs, rhs, ())]
    if not rows:
        return 0.0, 0.0
    # the lhs rows, then the rhs rows, raveled into one buffer
    ab = np.concatenate([a.ravel() for a, _ in rows] + [b.ravel() for _, b in rows])
    half = ab.size // 2
    scale = float(np.abs(ab).max(initial=0.0))  # NaN or inf if any coefficient is
    if scale <= _SAFE_SCALE:
        return float(np.abs(ab[:half] - ab[half:]).max(initial=0.0)), scale
    if scale < np.inf:
        with np.errstate(over="ignore"):
            err = float(np.abs(ab[:half] - ab[half:]).max(initial=0.0))
        if err < np.inf:
            return err, scale
    raise _first_non_finite(lhs, rhs)


def _first_non_finite(lhs, rhs):
    """The exact scan, leaf by leaf, for a call whose scale or error is not
    finite: the NonFiniteValue naming the first non-finite coefficient, else
    the first pair of coefficients whose difference overflows."""
    overflow = None
    for slot, lv, rv in _leaves(lhs, rhs, ()):
        a, b = _values(lv, rv)
        finite = np.isfinite(a) & np.isfinite(b)
        if not finite.all():
            return _non_finite("value", slot, lv, a, b, ~finite)
        if overflow is None:
            with np.errstate(over="ignore"):
                fits = np.isfinite(a - b)
            if not fits.all():
                overflow = _non_finite("difference", slot, lv, a, b, ~fits)
    return overflow


def _non_finite(what, slot, lv, a, b, bad):
    """The NonFiniteValue naming the first True entry of bad in a leaf."""
    at = tuple(int(i) for i in np.argwhere(bad)[0])
    names = tuple(f"slot {i}" for i in slot)
    if len(at) == 3:
        names += (f"component {at[0]}",)
    names += (f"basis key {_basis(lv.n, lv.k)[at[-2]]}",)
    return NonFiniteValue(
        f"non-finite {what} at {', '.join(names)}: lhs {float(a[at])!r}, rhs {float(b[at])!r}"
    )


def worst(lhs, rhs):
    """Where two values that alt_errors passed differ most, for the record of
    a failing point: {"slot", "component", "key", "lhs", "rhs"}, with slot
    the index in a list side (a list of them, outside in, for nested lists)
    and component the tangent component, each None where the values have
    none; None when they hold no coefficient.  Like alt_errors it reads the
    value row only, and the first of equal errors wins."""
    best = None
    for slot, lv, rv in _leaves(lhs, rhs, ()):
        a, b = _values(lv, rv)
        if a.size == 0:
            continue
        diff = np.abs(a - b)
        at = np.unravel_index(int(diff.argmax()), diff.shape)
        if best is None or diff[at] > best[0]:
            best = (diff[at], slot, at, _basis(lv.n, lv.k)[at[-2]], a[at], b[at])
    if best is None:
        return None
    _, slot, at, key, a, b = best
    return {
        "slot": slot[0] if len(slot) == 1 else list(slot) or None,
        "component": int(at[0]) if len(at) == 3 else None,
        "key": list(key),
        "lhs": float(a),
        "rhs": float(b),
    }


def _leaves(lhs, rhs, slot):
    """(slot, lhs, rhs) per pair of values in two parallel, maybe nested,
    lists, slot the tuple of list indices, outside in; ((), lhs, rhs) for
    two values.  Lists of unequal length, or a list against a value, are a
    ShapeMismatch naming the slot."""
    lists = isinstance(lhs, (list, tuple)), isinstance(rhs, (list, tuple))
    if lists[0] or lists[1]:
        if not (lists[0] and lists[1]) or len(lhs) != len(rhs):
            where = ", ".join(f"slot {i}" for i in slot) or "the top level"
            sides = [f"a list of {len(v)}" if is_list else "a value"
                     for v, is_list in zip((lhs, rhs), lists)]
            raise ShapeMismatch(f"compared sides differ at {where}: lhs {sides[0]}, rhs {sides[1]}")
        for i, (a, b) in enumerate(zip(lhs, rhs)):
            yield from _leaves(a, b, slot + (i,))
    else:
        yield slot, lhs, rhs


def _values(lhs, rhs):
    """The value rows of two values of one kind and degree, (..., rows, P),
    broadcast to one shape."""
    if lhs.n != rhs.n or lhs.k != rhs.k or type(lhs) is not type(rhs):
        raise DegreeError(f"compared values differ in kind or degree: {lhs!r} vs {rhs!r}")
    a, b = lhs.c[..., 0, :], rhs.c[..., 0, :]
    if a.shape != b.shape:  # a value of one point against one of several
        a, b = np.broadcast_arrays(a, b)
    return a, b


def exceeds(err, scale, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL):
    """Whether an error from alt_errors is outside the mixed tolerance; a NaN
    error or bound fails closed."""
    return not err <= atol + rtol * max(scale, 1.0)


def within(lhs, rhs, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL):
    return not exceeds(*alt_errors(lhs, rhs), atol, rtol)


def zero_like(value):
    return type(value).zero(value.n, value.k)
