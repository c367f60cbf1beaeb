"""Test references for the Toeplitz pivot.

The solvers update the pivot in constant time, beta_{k+1} = beta_k (+)
s_k alpha_k.  ``dot_pivot_steps`` forms it from its definition at every
step, beta_k = r0 (+) r[:k] . y[:k], and extends y and x through the
``border_step`` of a ``CountingSemiring``, which runs the generic ``dot``
and ``axpy``, so neither the update nor an instance kernel is under test
when the solvers are compared with it.  Its errors come from
the solvers' own ``_star`` and ``_check_carrier``, at the same sizes.

``beta_update`` is the paper's closed form of the update, which needs the
inverse of beta*.  The semiring contract has no inverse, so ``mul_inverse``
supplies one per registered instance.
"""

from semipath import NEG_INF, POS_INF, CountingSemiring, SolveState
from semipath.bordering import _check_carrier, _star


def mul_inverse(sr, a):
    """b with sr.mul(a, b) = sr.one, or None when a has no inverse in sr:
    -a for finite max-plus values, 1/a for nonneg-real a != 0, and on
    max-min and boolean one for one only."""
    if sr.name in ("max-plus", "max-plus-complete"):
        return None if a in (NEG_INF, POS_INF) else -a
    if sr.name == "nonneg-real":
        return None if a == 0 else 1 / a
    return sr.one if a == sr.one else None


def beta_update(sr, beta_prev, alpha_prev):
    """The paper's pivot update beta + (beta*)^-1 * alpha * alpha, or None
    when the closure of ``beta_prev`` or its inverse is undefined.  Where it
    is defined it equals the solvers' update beta + s * alpha, because
    alpha = beta* s."""
    bstar = sr.closure(beta_prev)
    if bstar is None:
        return None
    inv = mul_inverse(sr, bstar)
    if inv is None:
        return None
    return sr.add(beta_prev, sr.mul(inv, sr.mul(alpha_prev, alpha_prev)))


def dot_pivot_steps(sr, r0, r, b=None):
    """A SolveState per size, as ``durbin_steps`` (b None) or
    ``levinson_steps`` would yield it."""
    n = len(r) if b is None else len(b)
    beta, alpha, mu = r0, None, None
    y, x = [], None if b is None else []
    h = p = ()
    generic = CountingSemiring(sr)
    for k in range(n):
        if k:
            beta = sr.add(r0, sr.dot(r[:k], y))
            h, p = r[k - 1::-1], y[::-1]
        bstar = _star(sr, beta, k + 1)
        if b is not None:
            x, mu, _ = generic.border_step(x, h, p, b[k], bstar)
            _check_carrier(sr, (mu,), k + 1)
        if k < len(r):
            y, alpha, _ = generic.border_step(y, h, p, r[k], bstar)
            _check_carrier(sr, (alpha,), k + 1)
        if k == n - 1:
            _check_carrier(sr, y if b is None else x, n)
        yield SolveState(k=k + 1, y=list(y), alpha=alpha, beta=beta,
                         x=None if x is None else list(x), mu=mu)


def dot_pivot_solve(sr, r0, r, b=None):
    """The solution ``durbin`` (b None) or ``levinson`` should return."""
    *_, state = dot_pivot_steps(sr, r0, r, b)
    return state.y if b is None else state.x
