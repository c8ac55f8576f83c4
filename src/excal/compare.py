"""Tolerance comparison of alternating values, shared by catalog and verifier.

Pass criterion: abs_err <= atol + rtol * scale with
scale = max(|lhs coeff|, |rhs coeff|, 1); the scale floor avoids false
failures on near-zero identities and false passes on large magnitudes.
A non-finite coefficient on either side passes under no tolerance: the
comparison raises NonFiniteValue, naming where it sits.
"""

import math

from .alt import AltValue, VecAltValue
from .errors import NonFiniteValue
from .jets import scalar_value

DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-8


def alt_errors(lhs, rhs):
    """(max_abs_err, scale) between two AltValue/VecAltValue operands or
    parallel lists of them; raises NonFiniteValue on a NaN or infinity."""
    return _errors(lhs, rhs, ())


def _errors(lhs, rhs, where):
    if isinstance(lhs, (list, tuple)) or isinstance(rhs, (list, tuple)):
        return _fold(zip(lhs, rhs), "slot", where)
    if isinstance(lhs, VecAltValue) or isinstance(rhs, VecAltValue):
        return _fold(zip(lhs.comps, rhs.comps), "component", where)
    err = scale = 0.0
    for key in set(lhs.coeffs) | set(rhs.coeffs):
        a = scalar_value(lhs.coeffs.get(key, 0.0))
        b = scalar_value(rhs.coeffs.get(key, 0.0))
        if not (math.isfinite(a) and math.isfinite(b)):
            at = ", ".join(where + (f"basis key {key}",))
            raise NonFiniteValue(f"non-finite value at {at}: lhs {a!r}, rhs {b!r}")
        err = max(err, abs(a - b))
        scale = max(scale, abs(a), abs(b))
    return err, scale


def _fold(pairs, label, where):
    err = scale = 0.0
    for i, (a, b) in enumerate(pairs):
        e, s = _errors(a, b, where + (f"{label} {i}",))
        err = max(err, e)
        scale = max(scale, s)
    return err, scale


def exceeds(err, scale, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL):
    """Whether an error from alt_errors is outside the mixed tolerance."""
    return err > atol + rtol * max(scale, 1.0)


def within(lhs, rhs, atol=DEFAULT_ATOL, rtol=DEFAULT_RTOL):
    return not exceeds(*alt_errors(lhs, rhs), atol, rtol)


def zero_like(value):
    if isinstance(value, VecAltValue):
        return VecAltValue.zero(value.n, value.k)
    return AltValue.zero(value.n, value.k)
