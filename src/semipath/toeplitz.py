"""Quadratic-cost solvers for Bellman systems with symmetric Toeplitz matrix.

``durbin`` solves the self-generated system y = T y + r where the
right-hand side r also supplies the matrix: T has diagonal r0 and first-row
tail r[0:n-1] (n = len(r)).  ``levinson`` solves x = T x + b for an
arbitrary right-hand side.  Both run one recursion, the private ``_steps``
generator: at each size k it updates the pivot beta, stars it, and extends
y (the self-generated solution) and, when b is given, x by one entry.  Both
extensions are ``Semiring.border_step`` over the instance's ``dot`` and
``axpy`` kernels, the step ``bordering_solve`` takes: by persymmetry the
leading closure times the new column is y read backwards, so the closure is
never carried and the total operation count is quadratic in n rather than
the cubic cost of the general bordering route.  The recursion passes that
column as ``reversed(y)``, an iterator that copies nothing, and yields its
live y and x lists.  Besides the new lists ``border_step`` builds, a step
copies only the row h = r[k-1::-1], which stays a sequence because ``dot``
checks its length.

The pivot beta_k = r0 + r[0:k] . y[0:k] is never recomputed from that dot
product: every step updates it in constant time, beta_{k+1} = beta_k + s_k
alpha_k, where s_k is the sum the size-k step starred and alpha_k the entry
it produced, so a step costs O(k) operations in its ``border_step`` alone.
The update needs no inverse, so it runs on every instance; where
(beta*)^-1 exists it equals the paper's closed form beta + (beta*)^-1 alpha^2,
because alpha = beta* s; ``tests/pivot_reference.py`` keeps that form as a
test reference.

``SymToeplitz`` is the compact matrix (r0 and the first-row tail) that
``residual_check`` multiplies without expanding: ``matvec`` builds the lag
list once and sums each row, a window of it, through the instance's
``dot``, the kernel ``border_step`` runs.  The module needs only the
scalar operations and ``semirings._star``: it loads the dense ``matrices``
module only when ``SymToeplitz.expand`` builds a Matrix, and never the cubic
``bordering`` module.
"""

from collections import namedtuple

from .errors import ShapeMismatch
from .semirings import _check_carrier, _star

# The names ``durbin``, ``levinson`` and ``cli.run_solve`` accept in their
# ``variant`` slot; they select nothing.  ``benchmarks/workloads.py`` imports
# them.
VARIANT_RECOMPUTE = "recompute"
VARIANT_RECURSIVE = "recursive"
VARIANT_FALLBACK = "fallback"
VARIANTS = (VARIANT_RECOMPUTE, VARIANT_RECURSIVE, VARIANT_FALLBACK)


class SymToeplitz:
    """Compact symmetric Toeplitz matrix: the diagonal scalar plus the tail
    of the first row.  Entry (i, j) of the expanded matrix is the value at
    lag |i - j|."""

    __slots__ = ("r0", "tail", "semiring")

    def __init__(self, r0, tail, semiring):
        self.r0 = r0
        self.tail = tuple(tail)
        self.semiring = semiring

    def __repr__(self):
        return f"SymToeplitz(r0={self.r0!r}, tail={self.tail!r})"

    @property
    def n(self):
        return len(self.tail) + 1

    def expand(self):
        """Dense n-by-n matrix; symmetric and persymmetric by construction."""
        from .matrices import Matrix  # the dense type loads only where one is built

        lag = (self.r0,) + self.tail
        n = self.n
        data = [lag[abs(i - j)] for i in range(n) for j in range(n)]
        return Matrix(n, n, data, self.semiring)

    def matvec(self, xs):
        """Product of the expanded matrix with a column, without expanding."""
        n = self.n
        if len(xs) != n:
            raise ShapeMismatch(f"vector has length {len(xs)}, matrix is {n}x{n}")
        lag = (self.r0,) + self.tail
        # ext holds lags n-1, ..., 1, 0, 1, ..., n-1; row i (lags i, ..., 0,
        # ..., n-1-i) is the window of n entries starting at lag i
        ext = lag[:0:-1] + lag
        dot = self.semiring.dot
        return [dot(ext[n - 1 - i:2 * n - 1 - i], xs) for i in range(n)]


class SolveState(namedtuple("SolveState", "k y alpha beta x mu", defaults=(None, None))):
    """Snapshot after one extension step.

    ``k`` is the number of leading entries solved so far; ``y`` solves the
    self-generated system of size k and, for the arbitrary-rhs solver,
    ``x`` solves the size-k system for b.  ``alpha`` is the newest entry of
    y, ``mu`` the newest entry of x, ``beta`` the pivot scalar that was
    starred to produce them.

    ``y`` and ``x`` are the recursion's own lists, not copies.  No later
    step changes them, since each extension builds a new list, but the next
    step reads them, so a caller copies one before mutating it while the
    iteration is still running.
    """

    __slots__ = ()


def _check_variant(variant):
    """ValueError unless ``variant`` is one of the accepted names."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _steps(sr, r0, r, b):
    """The recursion behind ``durbin_steps`` and ``levinson_steps``: y/alpha
    is extended while k < len(r), x/mu only when a right-hand side b is given.

    Each state carries the live y and x, uncopied: ``border_step`` returns
    a new list, so no step changes a list an earlier state holds.
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
    h = ()
    for k in range(n):
        if k:
            beta = sr.add(beta, sr.mul(s, alpha))
            h = r[k - 1::-1]
        bstar = _star(sr, beta, k + 1)
        # by persymmetry the closure times the new column is y read backwards
        if b is not None:
            x, mu, _ = sr.border_step(x, h, reversed(y), b[k], bstar)
            _check_carrier(sr, (mu,), k + 1)
        if k < len(r):
            y, alpha, s = sr.border_step(y, h, reversed(y), r[k], bstar)
            _check_carrier(sr, (alpha,), k + 1)
        if k == n - 1:
            # an update can overflow while every new entry stays finite
            _check_carrier(sr, y if b is None else x, n)
        # positional: keywords make a namedtuple about 1.8x slower to build
        yield SolveState(k + 1, y, alpha, beta, x, mu)


def durbin_steps(semiring, r0, r):
    """Yield a SolveState after each extension of the self-generated system.

    The state with k == j satisfies y = T_j y + r[:j] where T_j is the
    symmetric Toeplitz matrix with diagonal r0 and tail r[:j-1]; it is
    exactly what a run on the truncated input (r0, r[:j]) would return.
    Each state's y is a fresh list that no later step changes; the next
    step reads it, so copy it before mutating it mid-iteration.
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
    the y extension since y is only needed to extend x further, so the last
    two states share one y.  Each state's x is a fresh list, and no later
    step changes a yielded y or x; the next step reads them, so copy one
    before mutating it mid-iteration.
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
