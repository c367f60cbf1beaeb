"""Semiring contract and the standard scalar instances.

A semiring here is a carrier set with a commutative associative addition
(neutral element ``zero``) and an associative multiplication (neutral
element ``one``) such that multiplication distributes over addition and
``zero`` annihilates under multiplication.  Besides the two total
operations, ``closure(a)`` is the only *partial* one: the star of a, the
sum of all its powers one + a + aa + ..., the semiring analogue of
1/(1 - a).  When defined, star = add(one, mul(a, star)) and the mirrored
identity both hold.  It returns ``None`` where the star does not exist in
the instance; callers decide whether that is an error.  No algorithm needs
a multiplicative inverse.

Values are plain Python objects (ints, floats, ``float('inf')`` sentinels,
or anything the operations accept); the instance object carries the
operations, not the values.
"""

import math
import operator
import random
from dataclasses import dataclass
from functools import reduce

from .errors import ShapeMismatch, UnknownSemiring, UnsupportedInstance

NEG_INF = float("-inf")
POS_INF = float("inf")

#: relative tolerance for equality on floating-point carriers
FLOAT_REL_TOL = 1e-10


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v == v


def _check_dot(xs, ys):
    """ShapeMismatch unless xs and ys have one length k >= 1."""
    if not len(xs) or len(ys) != len(xs):
        raise ShapeMismatch(f"dot product of lengths {len(xs)} and {len(ys)}")


class Semiring:
    """Base contract; concrete instances override the operations.

    Class attributes double as capability flags:

    ``idempotent``
        a + a = a; induces the canonical partial order ``leq``.
    ``complete``
        arbitrary sums exist, so ``closure`` is total.
    ``has_inverses``
        every element other than ``zero`` has a multiplicative inverse; no
        solver reads it, ``benchmarks/workloads.py`` still does.
    ``approximate``
        the whole carrier is floating-point: iterative procedures use
        relative-change stopping rules and the instance's values are
        compared under a tolerance throughout.  False for MaxPlus, whose
        ``eq`` alone forgives float rounding while ints and the infinity
        sentinels compare exactly.
    """

    name = "abstract"
    idempotent = False
    complete = False
    has_inverses = False
    approximate = False
    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def closure(self, a):
        """Return a*, or None when the star diverges in this instance."""
        raise NotImplementedError

    def dot(self, xs, ys):
        """Left fold with ``add`` of mul(xs[i], ys[i]) over i = 0..k-1.

        xs and ys are sequences of one length k >= 1, else ShapeMismatch.
        Exactly k ``mul`` and k - 1 ``add`` calls go through ``self``, so a
        wrapper that overrides them, such as CountingSemiring, sees each one.
        """
        _check_dot(xs, ys)
        add, mul = self.add, self.mul
        acc = mul(xs[0], ys[0])
        for i in range(1, len(xs)):
            acc = add(acc, mul(xs[i], ys[i]))
        return acc

    def border_step(self, z, h, p, rhs_k, star):
        """Extend z, which solves a leading k-by-k system (k = len(z)), by one
        entry for a right-hand side whose next entry is rhs_k.

        h is the new row left of the diagonal, p the leading closure times
        the new column above it, and star the new corner's starred pivot.
        The new entry is star * s with s = h . z + rhs_k (s = rhs_k for empty
        z, where h is not read), and each z[j] gains p[j] times it.  Returns
        the extended list, the new entry and s, the sum that was starred: the
        Toeplitz recursion updates its pivot by s times the new entry.
        Exactly 2k + 1 ``mul`` and 2k ``add`` calls go through ``self``;
        instance overrides return the same objects.
        """
        add, mul = self.add, self.mul
        if z:
            rhs_k = add(self.dot(h, z), rhs_k)
        new = mul(star, rhs_k)
        extended = [add(zj, mul(pj, new)) for zj, pj in zip(z, p)]
        extended.append(new)
        return extended, new, rhs_k

    def contains(self, v):
        """Whether v is a member of the carrier (sentinels included)."""
        raise NotImplementedError

    def sentinels(self):
        """Infinity sentinels admitted by the carrier, if any."""
        return ()

    def sample(self, rng):
        """Draw one random carrier value from ``rng`` (a random.Random)."""
        raise NotImplementedError

    def eq(self, a, b):
        """Carrier equality; exact unless an instance overrides it.

        NonNegReal compares under FLOAT_REL_TOL, and MaxPlus does whenever an
        operand is a float: float sums taken in another order, such as a
        solver's and a residual check's, can differ in the last bits.
        """
        return a == b

    def leq(self, a, b):
        """Canonical partial order a <= b, i.e. add(a, b) = b.

        Only meaningful for idempotent instances; raises
        UnsupportedInstance otherwise.
        """
        if not self.idempotent:
            raise UnsupportedInstance(
                f"{self.name} is not idempotent; it has no canonical order"
            )
        return self.eq(self.add(a, b), b)

    def default_samples(self, count=8, seed=42):
        """Deterministic sample set: zero, one, sentinels, then seeded draws.

        Small carriers may yield fewer than ``count`` distinct values.
        """
        rng = random.Random(seed)
        out = []
        for v in (self.zero, self.one, *self.sentinels()):
            if v not in out:
                out.append(v)
        attempts = 0
        while len(out) < count and attempts < 64 * count:
            v = self.sample(rng)
            attempts += 1
            if v not in out:
                out.append(v)
        return out

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class NonNegReal(Semiring):
    """Ordinary arithmetic restricted to the nonnegative reals.

    closure(a) = 1/(1 - a) for a < 1 and is undefined otherwise.
    """

    name = "nonneg-real"
    has_inverses = True
    approximate = True
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def border_step(self, z, h, p, rhs_k, star):
        # reduce is the generic left fold; sum() starts at 0 (0 + -0.0 is
        # 0.0) and is compensated for floats from Python 3.12 on
        if z:
            _check_dot(h, z)
            rhs_k = reduce(operator.add, map(operator.mul, h, z)) + rhs_k
        new = star * rhs_k
        extended = [zj + pj * new for zj, pj in zip(z, p)]
        extended.append(new)
        return extended, new, rhs_k

    def closure(self, a):
        if not a < self.one:  # NaN included
            return None
        if a == self.zero:
            return self.one
        return 1 / (1 - a)

    def contains(self, v):
        return _is_number(v) and v >= 0 and v != POS_INF

    def sample(self, rng):
        return rng.uniform(0.0, 1.8)

    def eq(self, a, b):
        if a == b:
            return True
        return math.isclose(a, b, rel_tol=FLOAT_REL_TOL)


class MaxPlus(Semiring):
    """The reals with -inf under (max, +); addition's neutral is -inf, the
    multiplicative unit is 0.

    closure(a) = 0 for a <= 0 (boundary included) and is undefined for
    a > 0.
    """

    name = "max-plus"
    idempotent = True
    has_inverses = True
    zero = NEG_INF
    one = 0

    def add(self, a, b):
        return a if a >= b else b

    def mul(self, a, b):
        return a + b

    def border_step(self, z, h, p, rhs_k, star):
        # max keeps the first of equal items, as add keeps its left operand;
        # the two differ only on NaN, which is outside the carrier
        if z:
            _check_dot(h, z)
            acc = max(map(operator.add, h, z))
            rhs_k = acc if acc >= rhs_k else rhs_k
        new = star + rhs_k
        extended = [zj if zj >= (t := pj + new) else t for zj, pj in zip(z, p)]
        extended.append(new)
        return extended, new, rhs_k

    def closure(self, a):
        return self.one if a <= self.one else None

    def contains(self, v):
        return v == NEG_INF or (_is_number(v) and v != POS_INF)

    def sentinels(self):
        return (NEG_INF,)

    def sample(self, rng):
        return rng.randint(-10, 10)

    def eq(self, a, b):
        # ints and the infinity sentinels compare exactly
        if a == b:
            return True
        return ((isinstance(a, float) or isinstance(b, float))
                and math.isclose(a, b, rel_tol=FLOAT_REL_TOL))


class MaxPlusComplete(MaxPlus):
    """Max-plus completed with +inf, making closure total.

    +inf absorbs under max and under + against anything except the zero
    element -inf: by definition the annihilator wins, so mul(-inf, +inf)
    is -inf.  The branch below enforces that before the carrier addition
    runs, because IEEE -inf + inf would produce NaN.
    """

    name = "max-plus-complete"
    complete = True
    has_inverses = False

    def border_step(self, z, h, p, rhs_k, star):
        # IEEE -inf + inf is NaN where mul gives -inf.  max skips a NaN after
        # the first item, as add skips -inf; only a NaN in first place
        # survives, and the generic dot handles that case.
        if z:
            _check_dot(h, z)
            acc = max(map(operator.add, h, z))
            if acc != acc:
                acc = Semiring.dot(self, h, z)
            rhs_k = acc if acc >= rhs_k else rhs_k
        new = self.mul(star, rhs_k)
        if new == POS_INF:
            # mul(p[j], +inf) is -inf where p[j] is -inf and +inf elsewhere
            extended = [zj if pj == NEG_INF or zj == POS_INF else new
                        for zj, pj in zip(z, p)]
        elif new == NEG_INF:
            extended = list(z)
        else:
            extended = [zj if zj >= (t := pj + new) else t for zj, pj in zip(z, p)]
        extended.append(new)
        return extended, new, rhs_k

    def mul(self, a, b):
        if a == NEG_INF or b == NEG_INF:
            return NEG_INF
        if a == POS_INF or b == POS_INF:
            return POS_INF
        return a + b

    def closure(self, a):
        return self.one if a <= self.one else POS_INF

    def contains(self, v):
        return v == NEG_INF or v == POS_INF or _is_number(v)

    def sentinels(self):
        return (NEG_INF, POS_INF)


class MaxMin(Semiring):
    """The extended reals under (max, min); zero is -inf, one is +inf.

    Every element has closure one: a* = max(one, min(a, a), ...) = +inf.
    """

    name = "max-min"
    idempotent = True
    complete = True
    zero = NEG_INF
    one = POS_INF

    def add(self, a, b):
        return a if a >= b else b

    def mul(self, a, b):
        return a if a <= b else b

    def border_step(self, z, h, p, rhs_k, star):
        if z:
            _check_dot(h, z)
            acc = max([hi if hi <= zi else zi for hi, zi in zip(h, z)])
            rhs_k = acc if acc >= rhs_k else rhs_k
        new = star if star <= rhs_k else rhs_k
        extended = [zj if zj >= (t := pj if pj <= new else new) else t
                    for zj, pj in zip(z, p)]
        extended.append(new)
        return extended, new, rhs_k

    def closure(self, a):
        return self.one

    def contains(self, v):
        return v == NEG_INF or v == POS_INF or _is_number(v)

    def sentinels(self):
        return (NEG_INF, POS_INF)

    def sample(self, rng):
        return rng.randint(-10, 10)


class Boolean(Semiring):
    """{0, 1} under (or, and): the smallest complete idempotent semiring.

    closure is constantly 1 (one + a + ... saturates immediately), which
    makes it ideal for exhaustive least-solution checks.
    """

    name = "boolean"
    idempotent = True
    complete = True
    has_inverses = True
    zero = 0
    one = 1

    def add(self, a, b):
        return 1 if a or b else 0

    def mul(self, a, b):
        return 1 if a and b else 0

    def border_step(self, z, h, p, rhs_k, star):
        # on {0, 1} min(a, b) is truthy exactly when a and b both are
        if z:
            _check_dot(h, z)
            rhs_k = 1 if any(map(min, h, z)) or rhs_k else 0
        new = 1 if star and rhs_k else 0
        extended = [1 if zj or (pj and new) else 0 for zj, pj in zip(z, p)]
        extended.append(new)
        return extended, new, rhs_k

    def closure(self, a):
        return 1

    def contains(self, v):
        return v == 0 or v == 1

    def sample(self, rng):
        return rng.randint(0, 1)


@dataclass
class OpCounter:
    """Tallies of the scalar operations performed through a CountingSemiring."""

    add_count: int = 0
    mul_count: int = 0
    closure_count: int = 0
    inverse_count: int = 0  # always 0; benchmarks/run.py reads it


class CountingSemiring(Semiring):
    """Wrap another instance and count every add/mul/closure call.

    Results are identical to the wrapped instance's; only the counter is
    touched.  A counter belongs to a single solver invocation: create a
    fresh wrapper per measurement and never share one across concurrent
    solves.
    """

    def __init__(self, inner, counter=None):
        self.inner = inner
        self.counter = counter if counter is not None else OpCounter()
        self.name = inner.name
        self.idempotent = inner.idempotent
        self.complete = inner.complete
        self.has_inverses = inner.has_inverses
        self.approximate = inner.approximate
        self.zero = inner.zero
        self.one = inner.one

    def add(self, a, b):
        self.counter.add_count += 1
        return self.inner.add(a, b)

    def mul(self, a, b):
        self.counter.mul_count += 1
        return self.inner.mul(a, b)

    def closure(self, a):
        self.counter.closure_count += 1
        return self.inner.closure(a)

    def contains(self, v):
        return self.inner.contains(v)

    def sentinels(self):
        return self.inner.sentinels()

    def sample(self, rng):
        return self.inner.sample(rng)

    def eq(self, a, b):
        return self.inner.eq(a, b)


def axiom_suite(instance, samples=None):
    """Evaluate the semiring axioms on concrete values.

    Associativity and distributivity run over all triples from ``samples``,
    commutativity over all pairs, neutrality and annihilation over all
    single values.  Returns a dict mapping axiom name to bool; failures are
    reported, never raised, so deliberately broken instances can be used as
    negative controls.
    """
    if samples is None:
        samples = instance.default_samples()
    samples = list(samples)
    if not samples:
        raise ValueError("samples must be non-empty")

    eq, add, mul = instance.eq, instance.add, instance.mul
    zero, one = instance.zero, instance.one

    report = {
        "add_associative": all(
            eq(add(add(a, b), c), add(a, add(b, c)))
            for a in samples for b in samples for c in samples
        ),
        "add_commutative": all(
            eq(add(a, b), add(b, a)) for a in samples for b in samples
        ),
        "zero_add_identity": all(
            eq(add(a, zero), a) and eq(add(zero, a), a) for a in samples
        ),
        "mul_associative": all(
            eq(mul(mul(a, b), c), mul(a, mul(b, c)))
            for a in samples for b in samples for c in samples
        ),
        "one_mul_identity": all(
            eq(mul(one, a), a) and eq(mul(a, one), a) for a in samples
        ),
        "left_distributive": all(
            eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
            for a in samples for b in samples for c in samples
        ),
        "right_distributive": all(
            eq(mul(add(a, b), c), add(mul(a, c), mul(b, c)))
            for a in samples for b in samples for c in samples
        ),
        "zero_annihilates": all(
            eq(mul(zero, a), zero) and eq(mul(a, zero), zero) for a in samples
        ),
    }
    if instance.idempotent:
        report["add_idempotent"] = all(eq(add(a, a), a) for a in samples)
    return report


#: registered instances, keyed by their stable external names
REGISTRY = {
    inst.name: inst
    for inst in (NonNegReal(), MaxPlus(), MaxPlusComplete(), MaxMin(), Boolean())
}


def get_semiring(name):
    """Look up a registered instance by name ('max-plus', 'boolean', ...)."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownSemiring(f"unknown semiring {name!r} (known: {known})") from None
