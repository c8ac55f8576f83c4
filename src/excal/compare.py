"""Tolerance comparison of alternating values, shared by catalog and verifier.

Pass criterion: abs_err <= atol + rtol * scale with
scale = max(|lhs coeff|, |rhs coeff|, 1); the scale floor avoids false
failures on near-zero identities and false passes on large magnitudes.
A non-finite coefficient on either side passes under no tolerance: the
comparison raises NonFiniteValue, naming where it sits.
"""

import numpy as np

from .alt import AltValue, VecAltValue, _basis
from .errors import DegreeError, NonFiniteValue

DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-8


def alt_errors(lhs, rhs):
    """(max_abs_err, scale) between two AltValue/VecAltValue operands or
    parallel lists of them, over every point they hold; raises
    NonFiniteValue on a NaN or infinity."""
    return _errors(lhs, rhs, ())


def _errors(lhs, rhs, where):
    if isinstance(lhs, (list, tuple)) or isinstance(rhs, (list, tuple)):
        return _fold(zip(lhs, rhs), "slot", where)
    if lhs.n != rhs.n or lhs.k != rhs.k or type(lhs) is not type(rhs):
        raise DegreeError(f"compared values differ in kind or degree: {lhs!r} vs {rhs!r}")
    a, b = lhs.c[..., 0, :], rhs.c[..., 0, :]
    if a.shape != b.shape:  # a value of one point against one of several
        a, b = np.broadcast_arrays(a, b)
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        at = tuple(int(i) for i in np.argwhere(~finite)[0])
        names = (f"basis key {_basis(lhs.n, lhs.k)[at[-2]]}",)
        if len(at) == 3:
            names = (f"component {at[0]}",) + names
        raise NonFiniteValue(
            f"non-finite value at {', '.join(where + names)}: lhs {float(a[at])!r}, rhs {float(b[at])!r}"
        )
    err = float(np.abs(a - b).max(initial=0.0))
    scale = float(max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)))
    return err, scale


def _fold(pairs, label, where):
    err = scale = 0.0
    for i, (a, b) in enumerate(pairs):
        e, s = _errors(a, b, where + (f"{label} {i}",))
        err = max(err, e)
        scale = max(scale, s)
    return err, scale


def exceeds(err, scale, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL):
    """Whether an error from alt_errors is outside the mixed tolerance; a NaN
    error or bound fails closed."""
    return not err <= atol + rtol * max(scale, 1.0)


def within(lhs, rhs, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL):
    return not exceeds(*alt_errors(lhs, rhs), atol, rtol)


def zero_like(value):
    if isinstance(value, VecAltValue):
        return VecAltValue.zero(value.n, value.k)
    return AltValue.zero(value.n, value.k)
