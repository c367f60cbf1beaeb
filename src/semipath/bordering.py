"""Matrix closure and Bellman solving for general square matrices.

Two routes:

* ``bordering_closure`` / ``bordering_solve`` grow the answer from the
  leading 1x1 corner, extending the closed submatrix by one row and column
  per step.  The running closure is kept and updated in place of being
  recomputed, which makes the total cost cubic in n.  Each step's three
  inner products go through the instance's ``dot`` kernel.  The closure is
  held column by column, so its rank-one update is one ``axpy`` per
  column, with the vector on the left as in ``border_step``.
  The solution grows one entry per step through ``Semiring.border_step``
  over the instance's ``dot`` and ``axpy`` kernels; the Toeplitz solvers
  take the same step with the reversed self-generated solution in place of
  the closure column.
* ``series_closure`` accumulates the partial sums I + A + A^2 + ... until
  they stop changing (on a complete idempotent instance, until n terms
  have been summed and the cycles are closed).  It is the brute-force
  oracle the structured solvers are verified against.  ``Matrix.mul`` sums
  it on the instance's ``dot``, and on the generic one through a
  ``CountingSemiring``.

``enumerate_solutions`` exhaustively searches the Boolean carrier for every
solution of x = A x + b, which is the ground truth for least-solution
claims.
"""

import math

from .errors import (
    EnumerationTooLarge,
    InstanceMismatch,
    NotStabilized,
    ShapeMismatch,
    UnsupportedInstance,
)
from .matrices import Matrix
from .semirings import _check_carrier, _star

#: relative-change threshold for detecting stabilization on float carriers
SERIES_REL_TOL = 1e-12

#: consecutive below-threshold terms required before a float series is
#: declared stable
SERIES_STABLE_RUN = 2

#: default term budget beyond 4n on float carriers: the terms of a series
#: with spectral radius 0.9 shrink below SERIES_REL_TOL of the sum within
#: log(1e-12) / log(0.9), about 263 terms, then stay there for the stable run
SERIES_FLOAT_TERMS = math.ceil(math.log(SERIES_REL_TOL) / math.log(0.9)) + SERIES_STABLE_RUN

#: hard cap on exhaustive Boolean solution enumeration (2**n candidates)
ENUMERATION_MAX_N = 12


def _require_square(A):
    if not A.is_square:
        raise ShapeMismatch(f"need a square matrix, got {A.rows}x{A.cols}")


def _rhs_values(A, b):
    """The entries of right-hand side b for x = A x + b, as a list.

    b is an n-by-1 matrix over A's instance or a plain sequence of length
    n, where A is n-by-n.
    """
    if isinstance(b, Matrix):
        if b.semiring is not A.semiring:
            raise InstanceMismatch("right-hand side belongs to a different instance")
        if b.cols != 1 or b.rows != A.rows:
            raise ShapeMismatch(f"right-hand side must be {A.rows}x1, got {b.rows}x{b.cols}")
        return b.to_flat()
    bs = list(b)
    if len(bs) != A.rows:
        raise ShapeMismatch(f"right-hand side must have length {A.rows}")
    return bs


def _bordering_steps(sr, rows):
    """Grow the closure C of the leading k-by-k block of ``rows`` for k = 1..n.

    Step k borders C with the column g above the new corner and the row h
    left of it: with p = C g, q = h^T C and u = (h . p + a_kk)*, the new
    closure is [[C + p u q, p u], [u q, u]].  C is held as a list of its
    columns.  p, q and the pivot sum h . p are taken through ``sr.dot``,
    each with the row on the left.  With v = p u, column j of the rank-one
    update C + v q is ``sr.axpy(C[:, j], v, q_j)``, whose products
    mul(v_i, q_j) keep v on the left, and u q_j is appended to the new list
    the kernel returns; the new last column is v with u appended.  Yields
    (columns of C, h, p, u) per step; the first has empty h and p.
    """
    sadd, smul, dot, axpy = sr.add, sr.mul, sr.dot, sr.axpy
    cols = [[_star(sr, rows[0][0], 1)]]
    yield cols, (), (), cols[0][0]
    for k in range(1, len(rows)):
        g = [row[k] for row in rows[:k]]
        h = rows[k][:k]
        p = [dot(ci, g) for ci in zip(*cols)]
        q = [dot(h, cj) for cj in cols]
        u = _star(sr, sadd(dot(h, p), rows[k][k]), k + 1)
        v = [smul(pi, u) for pi in p]
        cols_next = []
        for cj, qj in zip(cols, q):
            col = axpy(cj, v, qj)
            col.append(smul(u, qj))
            cols_next.append(col)
        cols_next.append(v + [u])
        cols = cols_next
        yield cols, h, p, u


def bordering_closure(A):
    """Closure A* of a square matrix, built corner-outwards.

    Raises ClosureUndefined (with the failing subsystem size) when some step
    needs a scalar star that does not exist in the instance, and
    OutsideCarrier when a float overflow puts that scalar outside the
    carrier.  When it succeeds the result satisfies A* = I + A A* = I + A* A.
    """
    _require_square(A)
    for cols, _, _, _ in _bordering_steps(A.semiring, A.to_rows()):
        pass
    return Matrix.from_rows(list(zip(*cols)), A.semiring)


def bordering_solve(A, b):
    """Least-style solution x = A* b of x = A x + b, grown incrementally.

    ``b`` may be an n-by-1 matrix or a plain sequence; the result is an
    n-by-1 matrix over A's instance.  The closure of the leading submatrix
    is carried along, so the cost is the same cubic bound as
    ``bordering_closure``.  Raises ClosureUndefined like the closure, and
    OutsideCarrier (with the subsystem size) when an entry leaves the carrier.
    """
    _require_square(A)
    sr = A.semiring
    bs = _rhs_values(A, b)
    x = []
    for (_, h, p, u), rhs_k in zip(_bordering_steps(sr, A.to_rows()), bs):
        x, new, _ = sr.border_step(x, h, p, rhs_k, u)
        _check_carrier(sr, (new,), len(x))
    # an update can overflow while every new entry stays finite
    _check_carrier(sr, x, len(x))
    return Matrix.column(x, sr)


def _float_changed(old, new):
    # before the equality: two overflowed partial sums are equal but not stable
    if math.isinf(new) or math.isnan(new):
        return True
    if new == old:
        return False
    return abs(new - old) > SERIES_REL_TOL * abs(old)


def series_closure(A, max_terms=None):
    """Brute-force closure by truncated power sums.

    Partial sums S_m = I + A + ... + A^m are accumulated until they reach a
    fixed point (exact equality for exact carriers; for floating-point
    carriers, entrywise relative change below 1e-12 for two consecutive
    terms).  ``max_terms`` defaults to 4n + 50, or to 4n + 265
    (SERIES_FLOAT_TERMS) on float carriers, enough for a spectral radius up
    to 0.9; exceeding it raises NotStabilized, the signal for a divergent
    star.  A sum that overflowed, to inf on a float carrier or outside an
    exact one, never counts as stable.  On a complete idempotent instance,
    such as max-plus-complete with a positive cycle, a budget of at least n
    terms that runs out closes the cycles through each node with its scalar
    star, so the oracle is total there.  Of the registered instances only
    max-plus-complete reaches that step: on max-min and boolean
    one (+) a = one, so the partial sums stop changing by n - 1 terms and a
    budget of n terms never runs out.
    """
    _require_square(A)
    sr = A.semiring
    n = A.rows
    if max_terms is None:
        max_terms = 4 * n + (SERIES_FLOAT_TERMS if sr.approximate else 50)
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")

    S = Matrix.identity(n, sr)
    P = Matrix.identity(n, sr)
    stable_run = 0
    for _ in range(max_terms):
        P = P.mul(A)
        S_next = S.add(P)
        if sr.approximate:
            changed = any(
                _float_changed(S.data[i], S_next.data[i]) for i in range(n * n)
            )
            stable_run = 0 if changed else stable_run + 1
            if stable_run >= SERIES_STABLE_RUN:
                return S_next
        elif S_next.data == S.data and all(map(sr.contains, S.data)):
            return S_next
        S = S_next
    if sr.complete and sr.idempotent and max_terms >= n:
        return _close_cycles(S, A)
    raise NotStabilized(
        max_terms, f"partial closure sums still changing after {max_terms} terms"
    )


def _close_cycles(S, A):
    """S (+) V S with V[i, c] = S[i, c] (A+_cc)* and A+ = S A: S plus, for
    each node c, the walks that pass through c and take its star there.

    S holds every walk of at most n edges, so it covers every simple path
    and A+_cc every simple cycle through c.  On an idempotent instance a
    walk through a node whose cycles sum past ``one`` then takes that
    node's star (+inf on max-plus-complete), and every other walk is
    already in S.  ``series_closure`` calls it on max-plus-complete alone:
    the max-min and boolean sums are stable before the budget runs out.
    """
    sr, n = A.semiring, A.rows
    plus = S.mul(A)
    stars = [sr.closure(plus[c, c]) for c in range(n)]
    via = Matrix(n, n, [sr.mul(S[i, c], stars[c]) for i in range(n) for c in range(n)], sr)
    return S.add(via.mul(S))


def enumerate_solutions(A, b):
    """All Boolean columns x with x = A x + b, by exhaustive search.

    Only defined over the Boolean instance and limited to n <= 12
    (2**n candidates).  Returns the solutions as n-by-1 matrices, in
    lexicographic order of their 0/1 entries.
    """
    _require_square(A)
    sr = A.semiring
    if sr.name != "boolean":
        raise UnsupportedInstance("exhaustive solution search needs the boolean instance")
    n = A.rows
    if n > ENUMERATION_MAX_N:
        raise EnumerationTooLarge(f"{n} > {ENUMERATION_MAX_N}: too many candidates")
    bs = _rhs_values(A, b)
    rows = A.to_rows()
    solutions = []
    for bits in range(1 << n):
        x = [(bits >> (n - 1 - i)) & 1 for i in range(n)]
        ok = True
        for i in range(n):
            ri = rows[i]
            acc = bs[i]
            for j in range(n):
                if ri[j] and x[j]:
                    acc = 1
                    break
            if acc != x[i]:
                ok = False
                break
        if ok:
            solutions.append(Matrix.column(x, sr))
    return solutions
