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

Sums of products go through two kernels written once on ``Semiring``
through ``add`` and ``mul``, ``dot`` and ``axpy``, and through the
bordering step ``border_step`` over them.  Each registered instance
overrides ``dot`` and ``axpy`` with single-pass forms that return the same
objects as the generic code: builtins (``max``, ``any``, comprehensions),
and explicit left-fold loops for the ``dot`` of nonneg-real, faster than
``functools.reduce``, where ``sum``, ``math.fsum`` and ``math.sumprod``
would change results (``NonNegReal.dot`` says how), and of max-min, which
takes a min only where it can raise the running max (``MaxMin.dot``).
``dot`` is the one summation kernel: the sum that ``border_step`` stars,
each row of ``SymToeplitz.matvec``, the bordering closure's ``p = C g``,
``q = h^T C`` and pivot sum, and each entry of ``Matrix.mul``, that is,
the dense checks and ``series_closure``.
``axpy`` is the one update kernel.  It multiplies vector-left,
``mul(p[j], a)``, which is the order both updates need: ``border_step``'s
``p[j]`` times the new entry, and, column by column, the bordering
closure's rank-one update, ``v[i]`` times ``q[j]``.
``CountingSemiring`` keeps the generic kernels, so it sees every operation
and stays a reference the instance kernels are tested against.
"""

import math
import operator
import random

from .errors import (
    ClosureUndefined,
    OutsideCarrier,
    ShapeMismatch,
    UnknownSemiring,
    UnsupportedInstance,
)

NEG_INF = float("-inf")
POS_INF = float("inf")

#: relative tolerance for equality on floating-point carriers
FLOAT_REL_TOL = 1e-10


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v == v


def _float_eq(self, a, b):
    """``eq`` of the instances with float values: ints and the infinity
    sentinels compare exactly, and a float operand under FLOAT_REL_TOL, since
    float sums taken in another order, such as a solver's and a residual
    check's, can differ in the last bits."""
    if a == b:
        return True
    return ((isinstance(a, float) or isinstance(b, float))
            and math.isclose(a, b, rel_tol=FLOAT_REL_TOL))


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
        the carrier is floating-point: ``series_closure`` stops on a small
        relative change and allows a longer term budget.  It decides no
        comparison; ``eq`` alone decides where float rounding is forgiven.
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
        Instance overrides return the same object.
        """
        _check_dot(xs, ys)
        add, mul = self.add, self.mul
        acc = mul(xs[0], ys[0])
        for i in range(1, len(xs)):
            acc = add(acc, mul(xs[i], ys[i]))
        return acc

    def axpy(self, z, p, a):
        """A new list of add(z[j], mul(p[j], a)) over j, with len(z) ``mul``
        and len(z) ``add`` calls through ``self``; instance overrides return
        the same objects."""
        add, mul = self.add, self.mul
        return [add(zj, mul(pj, a)) for zj, pj in zip(z, p)]

    def border_step(self, z, h, p, rhs_k, star):
        """Extend z, which solves a leading k-by-k system (k = len(z)), by one
        entry for a right-hand side whose next entry is rhs_k.

        h is the new row left of the diagonal, p the leading closure times
        the new column above it, and star the new corner's starred pivot.
        The new entry is star * s with s = h . z + rhs_k (s = rhs_k for empty
        z, where h is not read), and each z[j] gains p[j] times it.  Returns
        the extended list, the new entry and s, the sum that was starred: the
        Toeplitz recursion updates its pivot by s times the new entry.
        Exactly 2k + 1 ``mul`` and 2k ``add`` calls go through ``self``.
        """
        if z:
            rhs_k = self.add(self.dot(h, z), rhs_k)
        new = self.mul(star, rhs_k)
        extended = self.axpy(z, p, new)
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

        NonNegReal, MaxPlus and MaxPlusComplete compare a float operand under
        FLOAT_REL_TOL (see ``_float_eq``).
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

    def default_samples(self):
        """Deterministic sample set: zero, one, sentinels, then draws seeded
        with 42, eight distinct values in all.

        Small carriers may yield fewer.
        """
        rng = random.Random(42)
        out = []
        for v in (self.zero, self.one, *self.sentinels()):
            if v not in out:
                out.append(v)
        attempts = 0
        while len(out) < 8 and attempts < 512:
            v = self.sample(rng)
            attempts += 1
            if v not in out:
                out.append(v)
        return out

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


def _star(sr, value, step):
    """The closure of ``value``, or an error naming ``step``, the size of the
    leading subsystem that needed it: OutsideCarrier when ``value`` left the
    carrier, ClosureUndefined when its star does not exist."""
    if not sr.contains(value):
        raise OutsideCarrier(
            step, value, f"pivot {value!r} at size {step} is outside the {sr.name} carrier"
        )
    star = sr.closure(value)
    if star is None:
        raise ClosureUndefined(step, value, f"closure undefined in {sr.name} at size {step}")
    return star


def _check_carrier(sr, values, step):
    """OutsideCarrier naming ``step`` at the first entry of ``values`` that is
    not in the carrier: a float that overflowed to inf, or a NaN from one."""
    for v in values:
        if not sr.contains(v):
            raise OutsideCarrier(
                step, v, f"solution entry {v!r} at size {step} is outside the {sr.name} carrier"
            )


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

    def dot(self, xs, ys):
        # the generic left fold, written as a loop so that it runs on the
        # interpreter's specialised float + and * (reduce over map does
        # not).  sum() starts at 0 (0 + -0.0 is 0.0) and from Python 3.12
        # compensates float rounding; math.fsum and math.sumprod round
        # differently too
        _check_dot(xs, ys)
        pairs = zip(xs, ys)
        x, y = next(pairs)
        acc = x * y
        for x, y in pairs:
            acc = acc + x * y
        return acc

    def axpy(self, z, p, a):
        return [zj + pj * a for zj, pj in zip(z, p)]

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

    eq = _float_eq


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

    def dot(self, xs, ys):
        # max keeps the first of equal items, as add keeps its left operand;
        # the two differ only on NaN, which is outside the carrier
        _check_dot(xs, ys)
        return max(map(operator.add, xs, ys))

    def axpy(self, z, p, a):
        return [zj if zj >= (t := pj + a) else t for zj, pj in zip(z, p)]

    def closure(self, a):
        return self.one if a <= self.one else None

    def contains(self, v):
        return v == NEG_INF or (_is_number(v) and v != POS_INF)

    def sentinels(self):
        return (NEG_INF,)

    def sample(self, rng):
        return rng.randint(-10, 10)

    eq = _float_eq


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

    def dot(self, xs, ys):
        # IEEE -inf + inf is NaN where mul gives -inf.  max skips a NaN after
        # the first item, as add skips -inf; only a NaN in first place
        # survives, and the generic dot handles that case.
        acc = MaxPlus.dot(self, xs, ys)
        return acc if acc == acc else Semiring.dot(self, xs, ys)

    def axpy(self, z, p, a):
        if a == POS_INF:
            # mul(p[j], +inf) is -inf where p[j] is -inf and +inf elsewhere
            return [zj if pj == NEG_INF or zj == POS_INF else a for zj, pj in zip(z, p)]
        if a == NEG_INF:
            return list(z)
        return MaxPlus.axpy(self, z, p, a)

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

    add = MaxPlus.add
    sample = MaxPlus.sample
    contains = MaxPlusComplete.contains
    sentinels = MaxPlusComplete.sentinels

    def mul(self, a, b):
        return a if a <= b else b

    def dot(self, xs, ys):
        # the generic left fold, pruned: add(acc, t) replaces acc only when
        # acc < t = min(x, y), that is when both x and y exceed acc, so the
        # min is taken only then, and a tie keeps acc as add does
        _check_dot(xs, ys)
        pairs = zip(xs, ys)
        x, y = next(pairs)
        acc = x if x <= y else y
        for x, y in pairs:
            if x > acc and y > acc:
                acc = x if x <= y else y
        return acc

    def axpy(self, z, p, a):
        # z[j] >= min(p[j], a) exactly when z[j] >= a or z[j] >= p[j]
        return [zj if zj >= a or zj >= pj else (pj if pj <= a else a) for zj, pj in zip(z, p)]

    def closure(self, a):
        return self.one


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

    def dot(self, xs, ys):
        # on {0, 1} min(a, b) is truthy exactly when a and b both are
        _check_dot(xs, ys)
        return 1 if any(map(min, xs, ys)) else 0

    def axpy(self, z, p, a):
        return [1 if zj or (pj and a) else 0 for zj, pj in zip(z, p)]

    def closure(self, a):
        return 1

    def contains(self, v):
        return v == 0 or v == 1

    def sample(self, rng):
        return rng.randint(0, 1)


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
