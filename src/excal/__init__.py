"""excal: numerical exterior calculus with exact jet differentiation.

Evaluates differential forms, tangent-valued forms and the operators of
the Frolicher-Nijenhuis calculus (d, delta, wedge, interior, Lie and
covariant derivatives) at chart points, carrying truncated Taylor jets so
operator identities hold to floating-point roundoff.  Ships a catalog of
built-in geometries, a deterministic identity verifier and the ``excal``
command-line tool.
"""

from .alt import AltValue, VecAltValue, interior, sharp, trace, wedge, wedge_sv
from .catalog import CatalogEntry, builtin
from .compare import DEFAULT_ATOL, DEFAULT_RTOL, alt_errors, within
from .errors import (
    ArityError,
    ConfigError,
    DegreeError,
    DivisionByZeroAtPoint,
    DomainError,
    ExcalError,
    ExprSyntaxError,
    JetBudgetExhausted,
    NonFiniteValue,
    NotADerivation,
    OrderExceeded,
    PointExcluded,
    ReconstructionMismatch,
    ShapeMismatch,
    SingularMetric,
    UnknownEntry,
    UnknownIdentifier,
    UnknownSuite,
    ValidationFailed,
)
from .geometry import (
    CONFIG_VERSION,
    FormField,
    Geometry,
    VecFormField,
    dumps_config,
    emit_config,
    load_config,
    sample_points,
)
from .jets import (
    MAX_ORDER,
    Jet,
    backend_name,
    jet_apply,
    jet_const,
    jet_diff,
    jet_partial,
    jet_var,
)
from .operators import (
    Operator,
    codiff,
    d_nabla,
    ext_d,
    fn_decompose,
    graded_comm,
    lie_vec,
    nabla_vec,
    omega_diamond,
    omega_nabla,
    op_d,
    op_delta,
    op_eps,
    op_interior,
    op_lie,
    sharp_field,
    value_of,
)
from .prng import SplitMix64, derive_seed
from .verifier import (
    DEFAULT_POINTS,
    DEFAULT_SEED,
    REPORT_VERSION,
    IdentityCheck,
    all_pass,
    inline_checks,
    random_form,
    random_vec_form,
    run_check,
    suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    # alternating algebra
    "AltValue",
    "VecAltValue",
    "wedge",
    "wedge_sv",
    "interior",
    "trace",
    "sharp",
    # jets
    "MAX_ORDER",
    "Jet",
    "jet_const",
    "jet_var",
    "jet_apply",
    "jet_diff",
    "jet_partial",
    # geometry
    "CONFIG_VERSION",
    "Geometry",
    "FormField",
    "VecFormField",
    "load_config",
    "emit_config",
    "dumps_config",
    "sample_points",
    # operators
    "Operator",
    "ext_d",
    "codiff",
    "d_nabla",
    "lie_vec",
    "nabla_vec",
    "sharp_field",
    "omega_nabla",
    "omega_diamond",
    "op_d",
    "op_delta",
    "op_eps",
    "op_interior",
    "op_lie",
    "graded_comm",
    "fn_decompose",
    "value_of",
    # catalog / verifier
    "CatalogEntry",
    "builtin",
    "IdentityCheck",
    "run_check",
    "suite",
    "inline_checks",
    "random_form",
    "random_vec_form",
    "all_pass",
    "REPORT_VERSION",
    "DEFAULT_SEED",
    "DEFAULT_POINTS",
    "DEFAULT_ATOL",
    "DEFAULT_RTOL",
    "alt_errors",
    "within",
    # prng
    "SplitMix64",
    "derive_seed",
    # errors
    "ExcalError",
    "ShapeMismatch",
    "OrderExceeded",
    "JetBudgetExhausted",
    "DivisionByZeroAtPoint",
    "DomainError",
    "ExprSyntaxError",
    "UnknownIdentifier",
    "ArityError",
    "DegreeError",
    "PointExcluded",
    "SingularMetric",
    "NonFiniteValue",
    "NotADerivation",
    "ReconstructionMismatch",
    "ConfigError",
    "UnknownEntry",
    "UnknownSuite",
    "ValidationFailed",
]
