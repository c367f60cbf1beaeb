"""Quadratic-cost solvers for Bellman systems with symmetric Toeplitz matrix.

``durbin`` solves the self-generated system y = T y + r where the
right-hand side r also supplies the matrix: T has diagonal r0 and first-row
tail r[0:n-1] (n = len(r)).  ``levinson`` solves x = T x + b for an
arbitrary right-hand side.  Both run one recursion, the private ``_steps``
generator: at each size k it updates the pivot beta, stars it, and extends
y (the self-generated solution) and, when b is given, x by one entry.  Both
extensions are the instance's ``border_step`` kernel, the step
``bordering_solve`` takes: by persymmetry the leading closure times the new
column is the reversed y, so the closure is never carried and the total
operation count is quadratic in n rather than the cubic cost of the general
bordering route.

The pivot beta_k = r0 + r[0:k] . y[0:k] is never recomputed from that dot
product: every step updates it in constant time, beta_{k+1} = beta_k + s_k
alpha_k, where s_k is the sum the size-k step starred and alpha_k the entry
it produced, so a step costs O(k) operations in its ``border_step`` alone.
The update needs no inverse, so it runs on every instance; where
(beta*)^-1 exists it equals the paper's closed form beta + (beta*)^-1 alpha^2,
because alpha = beta* s; ``tests/pivot_reference.py`` keeps that form as a
test reference.
"""

from dataclasses import dataclass

from .bordering import _check_carrier, _star
from .errors import ShapeMismatch

# The names ``durbin``, ``levinson`` and ``cli.run_solve`` accept in their
# ``variant`` slot; they select nothing.  ``benchmarks/workloads.py`` imports
# them.
VARIANT_RECOMPUTE = "recompute"
VARIANT_RECURSIVE = "recursive"
VARIANT_FALLBACK = "fallback"
VARIANTS = (VARIANT_RECOMPUTE, VARIANT_RECURSIVE, VARIANT_FALLBACK)


@dataclass
class SolveState:
    """Snapshot after one extension step.

    ``k`` is the number of leading entries solved so far; ``y`` solves the
    self-generated system of size k and, for the arbitrary-rhs solver,
    ``x`` solves the size-k system for b.  ``alpha`` is the newest entry of
    y, ``mu`` the newest entry of x, ``beta`` the pivot scalar that was
    starred to produce them.
    """

    k: int
    y: list
    alpha: object
    beta: object
    x: list = None
    mu: object = None


def _check_variant(variant):
    """ValueError unless ``variant`` is one of the accepted names."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _steps(sr, r0, r, b):
    """The recursion behind ``durbin_steps`` and ``levinson_steps``: y/alpha
    is extended while k < len(r), x/mu only when a right-hand side b is given.
    """
    n = len(r) if b is None else len(b)
    if n < 1:
        raise ShapeMismatch("need at least one right-hand-side entry")
    if b is not None and len(r) != n - 1:
        raise ShapeMismatch(
            f"generator tail must have length {n - 1} for a size-{n} system, got {len(r)}"
        )

    beta, alpha, s, mu = r0, None, None, None
    y, x = [], None if b is None else []
    h = p = ()
    for k in range(n):
        if k:
            beta = sr.add(beta, sr.mul(s, alpha))
            # by persymmetry the closure times the new column is reversed y
            h, p = r[k - 1::-1], y[::-1]
        bstar = _star(sr, beta, k + 1)
        if b is not None:
            x, mu, _ = sr.border_step(x, h, p, b[k], bstar)
            _check_carrier(sr, (mu,), k + 1)
        if k < len(r):
            y, alpha, s = sr.border_step(y, h, p, r[k], bstar)
            _check_carrier(sr, (alpha,), k + 1)
        if k == n - 1:
            # an update can overflow while every new entry stays finite
            _check_carrier(sr, y if b is None else x, n)
        yield SolveState(k=k + 1, y=list(y), alpha=alpha, beta=beta,
                         x=None if x is None else list(x), mu=mu)


def durbin_steps(semiring, r0, r):
    """Yield a SolveState after each extension of the self-generated system.

    The state with k == j satisfies y = T_j y + r[:j] where T_j is the
    symmetric Toeplitz matrix with diagonal r0 and tail r[:j-1]; it is
    exactly what a run on the truncated input (r0, r[:j]) would return.
    """
    yield from _steps(semiring, r0, r, None)


def durbin(semiring, r0, r, variant=VARIANT_RECOMPUTE):
    """Solve y = T y + r where T is generated by (r0, r[:-1]).

    Returns the solution as a list of length len(r).  Raises
    ClosureUndefined (with the failing subsystem size) when the recursion
    hits a pivot without a star, and OutsideCarrier (with the size) when a
    float overflow puts a pivot or an entry outside the carrier.

    ``variant`` selects nothing: ``benchmarks/workloads.py`` still calls
    ``durbin(sr, r0, r, name)`` with a name from ``VARIANTS``, so the slot
    stays, and a name outside ``VARIANTS`` raises ValueError.
    """
    _check_variant(variant)
    state = None
    for state in durbin_steps(semiring, r0, r):
        pass
    return state.y


def levinson_steps(semiring, r0, r, b):
    """Yield a SolveState per step of the arbitrary-rhs solver.

    Interleaves the self-generated recursion (y, alpha, beta) with the
    x/mu recursion for the actual right-hand side b; the final step skips
    the y extension since y is only needed to extend x further.
    """
    yield from _steps(semiring, r0, r, b)


def levinson(semiring, r0, r, b, variant=VARIANT_RECOMPUTE):
    """Solve x = T x + b where T is generated by (r0, r); len(r) = len(b) - 1.

    Returns the solution as a list of length len(b); error behaviour
    matches ``durbin``.  ``variant`` selects nothing, as in ``durbin``:
    ``benchmarks/workloads.py`` still calls ``levinson(sr, r0, r, b, name)``.
    """
    _check_variant(variant)
    state = None
    for state in levinson_steps(semiring, r0, r, b):
        pass
    return state.x


def residual_check(toeplitz, sol, rhs):
    """Whether sol = T sol + rhs holds entrywise for the expanded matrix.

    Exact for exact carriers; floating-point carriers compare through the
    instance's relative tolerance.
    """
    n = toeplitz.n
    if len(sol) != n or len(rhs) != n:
        raise ShapeMismatch(f"solution and right-hand side must have length {n}")
    sr = toeplitz.semiring
    tx = toeplitz.matvec(sol)
    return all(sr.eq(sol[i], sr.add(tx[i], rhs[i])) for i in range(n))
