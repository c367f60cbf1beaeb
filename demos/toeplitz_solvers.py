"""Symmetric-Toeplitz Bellman systems in quadratic time.

durbin solves the self-generated system y = T y + r (the right-hand side
also defines the matrix); levinson solves x = T x + b for arbitrary b.
Over nonneg-real the equations reduce to the classical (I - T) u = rhs,
which numpy solves independently for comparison.
"""

import numpy as np

import semipath as sp
from semipath import SymToeplitz

MP = sp.get_semiring("max-plus")
NN = sp.get_semiring("nonneg-real")

# -- max-plus ------------------------------------------------------------------

r0, r = -1, [-2, -3]
y = sp.durbin(MP, r0, r)
print(f"max-plus durbin: r0={r0}, r={r}  ->  y={y}")
print("  fixpoint y = T y + r holds:",
      sp.residual_check(SymToeplitz(r0, r[:-1], MP), y, r))

b = [0, -1]
x = sp.levinson(MP, -1, [-2], b)
print(f"max-plus levinson: b={b}  ->  x={x}")

# levinson on the self-generated right-hand side reduces to durbin:
assert sp.levinson(MP, r0, r[:-1], r) == y
print("  levinson(r0, r[:-1], b=r) == durbin(r0, r)")
print()

# -- nonneg-real vs the classical dense solve --------------------------------------

r0, r = 0.5, [0.25, 0.1]
y = sp.durbin(NN, r0, r)
print(f"nonneg-real durbin: r0={r0}, r={r}  ->  y={y}")

T = np.asarray(SymToeplitz(r0, r[:-1], NN).expand().to_rows())
u = np.linalg.solve(np.eye(2) - T, np.asarray(r))
print(f"  classical dense solve of (I - T) u = r: u={u.tolist()}")
print(f"  max relative difference: {max(abs(np.asarray(y) - u) / abs(u)):.2e}")
print()

# -- the constant-time pivot ----------------------------------------------------------

# The pivot beta_k = r0 + r[:k].y[:k] is never recomputed from that dot
# product: every step updates it in constant time as beta + s alpha, where s
# is the sum the previous step starred.  The states carry both, so the
# definition can be checked against the update on a random instance.
rng = np.random.default_rng(0)
raw = rng.uniform(0.01, 1.0, size=9)
scale = 0.8 / (raw[0] + 2 * raw[1:].sum())
r0, r = float(raw[0] * scale), [float(v * scale) for v in raw[1:]]
states = list(sp.durbin_steps(NN, r0, r))
gap = max(abs(cur.beta - (r0 + sum(a * b for a, b in zip(r, prev.y))))
          for prev, cur in zip(states, states[1:]))
print("updated pivot vs its dot product on a random nonneg-real instance:", gap)

# The update needs no inverse: max-min inverts only its unit +inf, and the
# pivot still updates there.
MM = sp.get_semiring("max-min")
r0, r = 3, [5, -2, 7, 1]
y = sp.durbin(MM, r0, r)
print(f"max-min durbin: r0={r0}, r={r}  ->  y={y}")
print("  fixpoint y = T y + r holds:",
      sp.residual_check(SymToeplitz(r0, r[:-1], MM), y, r))

# Divergent instance: max-plus has no star for positive pivots at all.
try:
    sp.durbin(MP, -1, [5, -1])
except sp.ClosureUndefined as exc:
    print(f"max-plus pivot {exc.value} has no star while building size {exc.step}")
