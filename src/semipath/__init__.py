"""Linear algebra over semirings.

Solves discrete matrix Bellman equations x = A x + b through the Kleene
closure A*, with quadratic-cost specializations (generalized Durbin and
Levinson recursions) for symmetric Toeplitz matrices, a cubic bordering
method, and a brute-force power-series closure as verification oracle.
"""

from .bordering import (
    bordering_closure,
    bordering_solve,
    enumerate_solutions,
    series_closure,
)
from .errors import (
    BadSentinel,
    ClosureUndefined,
    EnumerationTooLarge,
    IncompatibleRequest,
    InstanceMismatch,
    NotStabilized,
    OutsideCarrier,
    ParseError,
    SemipathError,
    ShapeMismatch,
    SolverUndefined,
    UnknownSemiring,
    UnsupportedInstance,
)
from .matrices import Matrix, SymToeplitz
from .semirings import (
    NEG_INF,
    POS_INF,
    Boolean,
    MaxMin,
    MaxPlus,
    MaxPlusComplete,
    NonNegReal,
    REGISTRY,
    Semiring,
    axiom_suite,
    get_semiring,
)
from .toeplitz import (
    SolveState,
    VARIANT_FALLBACK,
    VARIANT_RECOMPUTE,
    VARIANT_RECURSIVE,
    VARIANTS,
    durbin,
    durbin_steps,
    levinson,
    levinson_steps,
    residual_check,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the counting wrapper needs dataclasses, which a plain solve never loads
    if name in ("CountingSemiring", "OpCounter"):
        from . import counting
        return getattr(counting, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Semiring",
    "NonNegReal",
    "MaxPlus",
    "MaxPlusComplete",
    "MaxMin",
    "Boolean",
    "CountingSemiring",
    "OpCounter",
    "REGISTRY",
    "get_semiring",
    "axiom_suite",
    "NEG_INF",
    "POS_INF",
    "Matrix",
    "SymToeplitz",
    "bordering_closure",
    "bordering_solve",
    "series_closure",
    "enumerate_solutions",
    "durbin",
    "durbin_steps",
    "levinson",
    "levinson_steps",
    "residual_check",
    "SolveState",
    "VARIANTS",
    "VARIANT_RECOMPUTE",
    "VARIANT_RECURSIVE",
    "VARIANT_FALLBACK",
    "SemipathError",
    "ShapeMismatch",
    "InstanceMismatch",
    "UnsupportedInstance",
    "SolverUndefined",
    "ClosureUndefined",
    "OutsideCarrier",
    "NotStabilized",
    "EnumerationTooLarge",
    "ParseError",
    "UnknownSemiring",
    "BadSentinel",
    "IncompatibleRequest",
]
