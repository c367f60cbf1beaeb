"""Tour of the scalar semiring instances.

Walks through the five registered instances, their closure behaviour, the
canonical order on idempotent carriers, the axiom checker, and the
operation-counting wrapper.
"""

from dataclasses import asdict

import semipath as sp
from semipath import NEG_INF, POS_INF

print("Registered instances:", list(sp.REGISTRY))
print()

# Closure a* = one + a + a*a + ... generalizes 1/(1 - a).  Whether it exists
# depends on the instance:
print("closure behaviour")
print("-----------------")
cases = [
    ("nonneg-real", 0.5), ("nonneg-real", 1.5),
    ("max-plus", -3), ("max-plus", 0), ("max-plus", 2),
    ("max-plus-complete", 2),
    ("max-min", 17),
    ("boolean", 0),
]
for name, a in cases:
    sr = sp.get_semiring(name)
    star = sr.closure(a)
    shown = "undefined" if star is None else star
    print(f"  {name:>18}  ({a!r})* = {shown}")
print()

# The completed max-plus instance must decide 0 * inf by the annihilation
# axiom, not by IEEE arithmetic (which would give NaN):
mpc = sp.get_semiring("max-plus-complete")
print("annihilation in max-plus-complete:")
print(f"  zero * +inf = {mpc.mul(NEG_INF, POS_INF)}  (IEEE would say {NEG_INF + POS_INF})")
print()

# Idempotent addition induces a partial order: a <= b iff a + b = b.
mp = sp.get_semiring("max-plus")
print("canonical order on max-plus:  -3 <= -1:", mp.leq(-3, -1), " -1 <= -3:", mp.leq(-1, -3))
print()

# Every instance passes the axiom checker on its default sample set.
print("axiom suite")
print("-----------")
for name in sp.REGISTRY:
    report = sp.axiom_suite(sp.get_semiring(name))
    bad = [k for k, ok in report.items() if not ok]
    print(f"  {name:>18}: {'all axioms hold' if not bad else 'FAILED ' + str(bad)}")


# A deliberately broken instance (multiplication replaced by subtraction)
# is caught by the same checker:
class BrokenMul(sp.Semiring):
    name = "broken-mul"
    zero = 0
    one = 0

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a - b

    def closure(self, a):
        return None

    def mul_inverse(self, a):
        return None

    def contains(self, v):
        return isinstance(v, int)

    def sample(self, rng):
        return rng.randint(-5, 5)


report = sp.axiom_suite(BrokenMul(), samples=[1, 2, 3])
print(f"  {'broken-mul':>18}: mul_associative = {report['mul_associative']} (negative control)")
print()

# The counting wrapper is observationally identical but tallies every call;
# one wrapper per measurement.
counted = sp.CountingSemiring(mp)
sp.durbin(counted, -1, [-2, -3, -4, -5])
print("operation counts for a size-4 solve:", asdict(counted.counter))
