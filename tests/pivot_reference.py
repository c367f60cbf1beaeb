"""Reference Toeplitz recursion that recomputes the pivot by its dot product.

The solvers update the pivot in constant time, beta_{k+1} = beta_k (+)
s_k alpha_k.  This recursion forms it from its definition at every step,
beta_k = r0 (+) r[:k] . y[:k], and extends y and x through the generic
``Semiring.border_step``, so neither the update nor an instance kernel
is under test when the solvers are compared with it.  Its errors come from
the solvers' own ``_star`` and ``_check_carrier``, at the same sizes.
"""

from semipath import Semiring, SolveState
from semipath.bordering import _check_carrier, _star


def dot_pivot_steps(sr, r0, r, b=None):
    """A SolveState per size, as ``durbin_steps`` (b None) or
    ``levinson_steps`` would yield it."""
    n = len(r) if b is None else len(b)
    beta, alpha, mu = r0, None, None
    y, x = [], None if b is None else []
    h = p = ()
    for k in range(n):
        if k:
            beta = sr.add(r0, sr.dot(r[:k], y))
            h, p = r[k - 1::-1], y[::-1]
        bstar = _star(sr, beta, k + 1)
        if b is not None:
            x, mu, _ = Semiring.border_step(sr, x, h, p, b[k], bstar)
            _check_carrier(sr, (mu,), k + 1)
        if k < len(r):
            y, alpha, _ = Semiring.border_step(sr, y, h, p, r[k], bstar)
            _check_carrier(sr, (alpha,), k + 1)
        if k == n - 1:
            _check_carrier(sr, y if b is None else x, n)
        yield SolveState(k=k + 1, y=list(y), alpha=alpha, beta=beta,
                         x=None if x is None else list(x), mu=mu)


def dot_pivot_solve(sr, r0, r, b=None):
    """The solution ``durbin`` (b None) or ``levinson`` should return."""
    *_, state = dot_pivot_steps(sr, r0, r, b)
    return state.y if b is None else state.x
