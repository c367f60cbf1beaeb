"""Linear algebra over semirings.

Solves discrete matrix Bellman equations x = A x + b through the Kleene
closure A*, with quadratic-cost specializations (generalized Durbin and
Levinson recursions) for symmetric Toeplitz matrices, a cubic bordering
method, and a brute-force power-series closure as verification oracle.

Each public name loads its module on first access, so a Toeplitz solve
never imports the dense ``matrices`` or the cubic ``bordering`` module, nor
``counting`` and with it ``dataclasses``.
"""

__version__ = "0.1.0"

#: every public name, once, under the module that defines it
_EXPORTS = {
    "semirings": (
        "Semiring", "NonNegReal", "MaxPlus", "MaxPlusComplete", "MaxMin", "Boolean",
        "REGISTRY", "get_semiring", "axiom_suite", "NEG_INF", "POS_INF",
    ),
    "counting": ("CountingSemiring", "OpCounter"),
    "matrices": ("Matrix",),
    "bordering": (
        "bordering_closure", "bordering_solve", "series_closure", "enumerate_solutions",
    ),
    "toeplitz": (
        "SymToeplitz", "durbin", "durbin_steps", "levinson", "levinson_steps",
        "residual_check", "SolveState",
        "VARIANTS", "VARIANT_RECOMPUTE", "VARIANT_RECURSIVE", "VARIANT_FALLBACK",
    ),
    "errors": (
        "SemipathError", "ShapeMismatch", "InstanceMismatch", "UnsupportedInstance",
        "SolverUndefined", "ClosureUndefined", "OutsideCarrier", "NotStabilized",
        "EnumerationTooLarge", "ParseError", "UnknownSemiring", "BadSentinel",
        "IncompatibleRequest",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
