"""Exception hierarchy shared by all excal modules."""


class ExcalError(Exception):
    """Base class for all errors raised by excal."""


class ShapeMismatch(ExcalError):
    """Operands disagree in shape: jets in their number of variables, values
    in their number of points, compared sides in their list slots."""


class OrderExceeded(ExcalError):
    """A derivative of higher order than the jet carries was requested."""


class JetBudgetExhausted(ExcalError):
    """An operator composition needs more derivative orders than available.

    Raised when differentiating an order-0 jet, or when a requested jet
    order exceeds the hard cap.
    """


class DivisionByZeroAtPoint(ExcalError):
    """Jet division by a jet whose value at the point is zero."""


class DomainError(ExcalError):
    """An elementary function was evaluated outside its domain."""

    def __init__(self, fn, value, span=None):
        self.fn = fn
        self.value = value
        self.span = span
        msg = f"{fn} undefined at value {value!r}"
        if span is not None:
            msg += f" (source span {span})"
        super().__init__(msg)


class ExprSyntaxError(ExcalError):
    """Malformed scalar expression; carries the byte offset of the error."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


class UnknownIdentifier(ExcalError):
    """An expression references a name not in the coordinate list."""

    def __init__(self, name, offset=None):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier {name!r}")


class ArityError(ExcalError):
    """Wrong number of arguments to a function or evaluation."""


class DegreeError(ExcalError):
    """An alternating-algebra operation got an argument of invalid degree."""


class PointExcluded(ExcalError):
    """The evaluation point violates the chart's domain or exclusion."""


class SingularMetric(ExcalError):
    """The metric matrix is singular (or not positive-definite) at a point."""


class NotADerivation(ExcalError):
    """fn_decompose received an operator failing the Leibniz check."""


class ReconstructionMismatch(ExcalError):
    """fn_decompose output fails to reproduce the input operator."""


class NonFiniteValue(ExcalError):
    """A compared value holds a NaN or an infinity."""


class ConfigError(ExcalError):
    """A config document or identity check is unresolvable."""


class UnknownEntry(ExcalError):
    """Unknown catalog entry name."""


class UnknownSuite(ExcalError):
    """Unknown built-in check/suite name."""


class ValidationFailed(ExcalError):
    """A catalog entry failed one of its structural validation checks."""

    def __init__(self, entry, identity, detail=""):
        self.entry = entry
        self.identity = identity
        super().__init__(f"catalog entry {entry!r} failed validation {identity!r} {detail}")
