"""Scalar semiring instances: closure, inverses, order, axioms, counting."""

import math
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

import semipath as sp
from semipath import NEG_INF, POS_INF

from pivot_reference import mul_inverse

NN = sp.get_semiring("nonneg-real")
MP = sp.get_semiring("max-plus")
MPC = sp.get_semiring("max-plus-complete")
MM = sp.get_semiring("max-min")
BOOL = sp.get_semiring("boolean")

ALL = [NN, MP, MPC, MM, BOOL]


class BrokenMul(sp.Semiring):
    """Negative control: multiplication replaced by subtraction."""

    name = "broken-mul"
    zero = 0
    one = 0

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a - b

    def closure(self, a):
        return None

    def contains(self, v):
        return isinstance(v, int)

    def sample(self, rng):
        return rng.randint(-5, 5)


# -- closure -----------------------------------------------------------------

@pytest.mark.parametrize("sr,a,expected", [
    (MP, -3, 0),
    (MP, 0, 0),           # boundary a = one is included
    (MP, NEG_INF, 0),
    (MP, 2, None),
    (MP, 0.5, None),
    (MM, 17, POS_INF),
    (MM, NEG_INF, POS_INF),
    (NN, 0.5, 2.0),
    (NN, 0, 1),
    (NN, 1.5, None),
    (NN, 1.0, None),
    (MPC, 2, POS_INF),
    (MPC, POS_INF, POS_INF),
    (MPC, -1, 0),
    (BOOL, 0, 1),
    (BOOL, 1, 1),
])
def test_scalar_closure(sr, a, expected):
    assert sr.closure(a) == expected


def test_nonneg_closure_of_nan_is_none():
    assert NN.closure(float("nan")) is None


def test_closure_satisfies_quasi_inverse_on_samples():
    for sr in ALL:
        for a in sr.default_samples():
            c = sr.closure(a)
            if c is None:
                continue
            assert sr.eq(c, sr.add(sr.one, sr.mul(a, c)))
            assert sr.eq(c, sr.add(sr.one, sr.mul(c, a)))


@given(st.integers(-50, 0))
def test_maxplus_closure_quasi_inverse(a):
    c = MP.closure(a)
    assert c == MP.add(MP.one, MP.mul(a, c))


@given(st.floats(min_value=0.0, max_value=0.999, allow_nan=False))
def test_nonneg_closure_quasi_inverse(a):
    c = NN.closure(a)
    assert c is not None
    assert NN.eq(c, NN.add(NN.one, NN.mul(a, c)))


# -- inverses ------------------------------------------------------------------
# The contract has no inverse; these pin the test-local one behind the
# closed-form pivot reference.

@pytest.mark.parametrize("sr,a,expected", [
    (MP, -4, 4),
    (MP, 0, 0),
    (MP, NEG_INF, None),
    (NN, 0.25, 4.0),
    (NN, 0, None),
    (BOOL, 0, None),
    (BOOL, 1, 1),
    (MPC, 3, -3),
    (MPC, POS_INF, None),
    (MPC, NEG_INF, None),
    (MM, 5, None),
    (MM, POS_INF, POS_INF),
])
def test_scalar_mul_inverse(sr, a, expected):
    assert mul_inverse(sr, a) == expected


def test_defined_inverses_multiply_to_one():
    for sr in ALL:
        for a in sr.default_samples():
            inv = mul_inverse(sr, a)
            if inv is None:
                continue
            assert sr.eq(sr.mul(a, inv), sr.one)


# -- canonical order ------------------------------------------------------------

def test_canonical_leq_examples():
    assert MP.leq(-3, -1)
    assert not MP.leq(-1, -3)
    assert not BOOL.leq(1, 0)
    assert BOOL.leq(0, 1)
    assert MM.leq(4, 4)


def test_canonical_leq_rejects_non_idempotent():
    with pytest.raises(sp.UnsupportedInstance):
        NN.leq(1, 2)


@pytest.mark.parametrize("sr", [MP, MPC, NN], ids=lambda s: s.name)
def test_maxplus_eq_forgives_float_rounding_only(sr):
    # one float sum in two orders differs in the last bit
    assert (-0.1 + -0.2) + -0.3 != -0.1 + (-0.2 + -0.3)
    assert sr.eq((-0.1 + -0.2) + -0.3, -0.1 + (-0.2 + -0.3))
    assert not sr.eq(-1.0, -1.0 - 1e-9)
    # ints and the infinity sentinels compare exactly
    assert not sr.eq(10**12, 10**12 + 1) and sr.eq(10**12, 10**12)
    for v in sr.sentinels():
        assert sr.eq(v, v) and not sr.eq(v, -v)
        assert not sr.eq(v, 1e308) and not sr.eq(-1e308, v)
    if sr is not NN:
        assert not sr.approximate


@pytest.mark.parametrize("sr", [MP, MPC, MM, BOOL])
def test_canonical_leq_is_partial_order(sr):
    samples = sr.default_samples()
    for a in samples:
        assert sr.leq(a, a)
    for a in samples:
        for b in samples:
            if sr.leq(a, b) and sr.leq(b, a):
                assert sr.eq(a, b)
            for c in samples:
                if sr.leq(a, b) and sr.leq(b, c):
                    assert sr.leq(a, c)


# -- axioms -----------------------------------------------------------------------

@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.name)
def test_axiom_suite_passes_for_registered_instances(sr):
    report = sp.axiom_suite(sr)
    assert all(report.values()), {k: v for k, v in report.items() if not v}


def test_axiom_suite_reports_broken_mul_associativity():
    report = sp.axiom_suite(BrokenMul(), samples=[1, 2, 3])
    assert report["mul_associative"] is False


def test_axiom_suite_rejects_empty_samples():
    with pytest.raises(ValueError):
        sp.axiom_suite(MP, samples=[])


def test_maxplus_complete_annihilation_never_nan():
    assert MPC.mul(MPC.zero, POS_INF) == MPC.zero
    assert MPC.mul(POS_INF, MPC.zero) == MPC.zero
    v = MPC.mul(MPC.zero, POS_INF)
    assert v == v  # NaN would fail
    # the uncompleted instance would have produced NaN from -inf + inf
    assert math.isnan(NEG_INF + POS_INF)


def test_maxplus_complete_infinity_absorbs_nonzero():
    assert MPC.mul(3, POS_INF) == POS_INF
    assert MPC.add(-7, POS_INF) == POS_INF


# -- samples and carriers -------------------------------------------------------

def test_default_samples_include_units_and_sentinels():
    for sr in ALL:
        samples = sr.default_samples()
        assert sr.zero in samples
        assert sr.one in samples
        for s in sr.sentinels():
            assert s in samples
        assert samples == sr.default_samples()  # deterministic


def test_default_samples_small_carrier():
    assert BOOL.default_samples() == [0, 1]


@pytest.mark.parametrize("sr,value,expected", [
    (MP, -3.5, True),
    (MP, NEG_INF, True),
    (MP, POS_INF, False),
    (NN, 2.0, True),
    (NN, -1, False),
    (NN, POS_INF, False),
    (BOOL, 1, True),
    (BOOL, 0.5, False),
    (MM, POS_INF, True),
    (MPC, POS_INF, True),
])
def test_contains(sr, value, expected):
    assert sr.contains(value) is expected


# -- border_step and its kernels ------------------------------------------------------

# carrier values per instance: every sentinel, -0.0, an int beside an equal
# float (ties show which operand a kernel keeps) and, for nonneg-real, sums
# whose float result depends on the order in which they are added
KERNEL_VALUES = {
    "nonneg-real": [0, 1, 3, 3.0, 0.0, -0.0, 0.1, 0.2, 0.3, 0.7, 1e16, 2.5e-8],
    "max-plus": [NEG_INF, 0, 0.0, -0.0, 3, 3.0, -2, -2.5, -0.1, -7],
    "max-plus-complete": [NEG_INF, POS_INF, 0, 0.0, -0.0, 3, 3.0, -2, -2.5, -7],
    "max-min": [NEG_INF, POS_INF, 0, 0.0, -0.0, 3, 3.0, -2, -2.5, 7],
    "boolean": [0, 1, 0.0, 1.0, True, False],
}


def typed(values):
    return [(type(v), repr(v)) for v in values]


def assert_kernels_match_the_generic_ones(sr, z, h, p, rhs_k, star):
    """sr's step, dot and axpy return the objects of the generic code run on
    sr's add and mul: CountingSemiring keeps the generic kernels.  p may be
    a one-shot iterator, as the Toeplitz recursion's reversed(y) is, so each
    step and update also runs on iter(p) and must give the list form's
    objects."""
    counting = sp.CountingSemiring(sr)
    got, new, s = counting.border_step(list(z), h, p, rhs_k, star)
    want = typed(got + [new, s])
    for kernels, q in ((sr, p), (sr, iter(p)), (counting, iter(p))):
        got, new, s = kernels.border_step(list(z), h, q, rhs_k, star)
        assert typed(got + [new, s]) == want, (kernels, z, h, p, rhs_k, star)
    if z:
        assert typed([sr.dot(h, z)]) == typed([sp.Semiring.dot(sr, h, z)]), (h, z)
    want = typed(counting.axpy(z, p, rhs_k))
    for kernels, q in ((sr, p), (sr, iter(p)), (counting, iter(p))):
        assert typed(kernels.axpy(z, q, rhs_k)) == want, (kernels, z, p, rhs_k)


@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.name)
def test_border_step_matches_the_generic_step(sr):
    pool = KERNEL_VALUES[sr.name]
    assert all(s in pool for s in sr.sentinels())
    rng = random.Random(f"border-step:{sr.name}")
    for _ in range(2000):
        k = rng.randint(0, 9)
        z, h, p = ([rng.choice(pool) for _ in range(k)] for _ in range(3))
        rhs_k, star = rng.choice(pool), rng.choice(pool)
        assert_kernels_match_the_generic_ones(sr, z, h, p, rhs_k, star)


@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.name)
def test_border_step_length_mismatch_matches_the_generic_step(sr):
    z = [sr.one, sr.zero]
    for h in ([], [sr.one], [sr.one] * 3):
        with pytest.raises(sp.ShapeMismatch) as got:
            sr.border_step(list(z), h, z, sr.one, sr.one)
        with pytest.raises(sp.ShapeMismatch) as want:
            sp.CountingSemiring(sr).border_step(list(z), h, z, sr.one, sr.one)
        assert str(got.value) == str(want.value)
        with pytest.raises(sp.ShapeMismatch) as got:
            sr.dot(h, z)
        with pytest.raises(sp.ShapeMismatch) as want:
            sp.Semiring.dot(sr, h, z)
        assert str(got.value) == str(want.value)
    # an empty z needs no dot product, so h is not read
    assert sr.border_step([], [sr.one], (), sr.one, sr.one) == ([sr.one], sr.one, sr.one)


def test_generic_kernels_where_counts_or_semantics_need_them():
    # one border_step, on Semiring, one summation kernel, dot, and one update
    # kernel, axpy; every instance brings dot and axpy, which the solvers and
    # the dense code share
    assert not hasattr(sp.Semiring, "fold")
    assert not hasattr(sp.Semiring, "axpy_left")
    for sr in ALL:
        assert type(sr).border_step is sp.Semiring.border_step
        assert type(sr).dot is not sp.Semiring.dot
        assert type(sr).axpy is not sp.Semiring.axpy
        assert not hasattr(sr, "axpy_left")
    # the counting wrapper runs the generic kernels, so it sees every call
    for name in ("dot", "axpy", "border_step"):
        assert getattr(sp.CountingSemiring, name) is getattr(sp.Semiring, name)
    # IEEE -inf + inf is NaN, so max-plus-complete cannot use MaxPlus's kernels
    assert type(MPC).dot is not sp.MaxPlus.dot
    assert type(MPC).axpy is not sp.MaxPlus.axpy
    assert MPC.border_step([NEG_INF], [POS_INF], [POS_INF], NEG_INF, 0) == (
        [NEG_INF, NEG_INF], NEG_INF, NEG_INF)


def test_max_plus_complete_border_step_matches_the_generic_step_with_overflow():
    # finite sums that overflow to inf (1e308 + 1e308), -inf + inf in any
    # place of the starred sum, and the stars 0 and +inf that closure returns
    pool = [NEG_INF, POS_INF, 0, 0.0, -0.0, 3, 3.0, -2.5, 1e308, 1.5e308, -1e308]
    rng = random.Random("border-step:max-plus-complete:overflow")
    for _ in range(20000):
        k = rng.randint(0, 6)
        z, h, p = ([rng.choice(pool) for _ in range(k)] for _ in range(3))
        rhs_k = rng.choice(pool)
        star = rng.choice([0, POS_INF, rng.choice(pool)])
        assert_kernels_match_the_generic_ones(MPC, z, h, p, rhs_k, star)


def test_nonneg_real_dot_is_the_float_left_fold():
    # plain left-to-right float rounding: math.fsum, and sum() from Python
    # 3.12 on, compensate and give 1.0000000000000002e16
    ones = [1, 1, 1]
    assert typed([NN.dot([1e16, 1.0, 1.0], ones)]) == typed([1e16])
    assert math.fsum([1e16, 1.0, 1.0]) == 1.0000000000000002e16
    # the first product starts the sum; sum() starts at 0, and 0 + -0.0 is 0.0
    assert typed([NN.dot([-0.0], [1.0])]) == typed([-0.0])
    assert typed([sum([-0.0 * 1.0])]) == typed([0.0])
    # ints stay ints
    assert typed([NN.dot([1, 2], [3, 4])]) == typed([11])
    # SymToeplitz.matvec passes a tuple window of its lag list
    rng = random.Random("nonneg-real:dot")
    for k in (1, 2, 7, 64):
        xs = [rng.uniform(0.0, 1.8) for _ in range(k)]
        ys = [rng.uniform(0.0, 1.8) for _ in range(k)]
        want = typed([sp.Semiring.dot(NN, xs, ys)])
        assert typed([NN.dot(xs, ys)]) == want
        assert typed([NN.dot(tuple(xs), ys)]) == typed([NN.dot(xs, tuple(ys))]) == want


MAX_MIN_VALUES = st.sampled_from(KERNEL_VALUES["max-min"])


@st.composite
def kernel_runs(draw, values, k):
    """k kernel values drawn from ``values``, as drawn, sorted ascending or
    sorted descending: where xs and ys both ascend, a max fold raises its
    running max at every term, its worst case, and where both descend at
    the first term only"""
    drawn = draw(st.lists(values, min_size=k, max_size=k))
    order = draw(st.sampled_from((None, False, True)))
    return drawn if order is None else sorted(drawn, reverse=order)


@settings(derandomize=True, max_examples=150)
@given(st.integers(1, 9).flatmap(lambda k: st.tuples(*[kernel_runs(MAX_MIN_VALUES, k)] * 4)),
       MAX_MIN_VALUES)
def test_max_min_pruned_kernels_match_the_generic_ones(vectors, a):
    # dot takes a min only where both operands exceed the running max, and
    # axpy only where z[j] is below both p[j] and a; ties keep acc and z[j]
    xs, ys, z, p = vectors
    assert typed([MM.dot(xs, ys)]) == typed([sp.Semiring.dot(MM, xs, ys)])
    assert typed(MM.axpy(z, p, a)) == typed(sp.Semiring.axpy(MM, z, p, a))


@st.composite
def max_plus_kernel_args(draw):
    """max-plus or max-plus-complete, with xs, ys, z, p and a from its pool,
    in half the cases with +-1e308 added, whose sums overflow to +-inf; the
    other half keeps the ties of the pool's ints and floats at the top of a
    sum"""
    sr = draw(st.sampled_from([MP, MPC]))
    pool = KERNEL_VALUES[sr.name] + draw(st.sampled_from(([], [1e308, -1e308])))
    values = st.sampled_from(pool)
    k = draw(st.integers(1, 9))
    return (sr, *(draw(kernel_runs(values, k)) for _ in range(4)), draw(values))


@settings(derandomize=True, max_examples=150)
@given(max_plus_kernel_args())
def test_max_plus_loop_kernels_match_the_generic_ones(args):
    # dot is a left fold whose strict > keeps acc on a tie (3 against 3.0,
    # 0 against -0.0) and skips a NaN term from -inf + inf; max-plus-complete
    # falls back to the generic dot on a NaN in first place, and its axpy
    # branches on a = +inf, -inf or finite
    sr, xs, ys, z, p, a = args
    generic = sp.CountingSemiring(sr)
    assert typed([sr.dot(xs, ys)]) == typed([generic.dot(xs, ys)])
    assert typed(sr.axpy(z, p, a)) == typed(generic.axpy(z, p, a))


@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.name)
def test_axpy_kernels_return_a_new_list(sr):
    # the bordering steps append to the column and border_step to the list
    # that axpy returns, so handing back z itself would change a C or an x
    # that an earlier step already yielded.  Every scalar of the pool
    # runs, so max-plus-complete's +inf and -inf branches do too
    pool = KERNEL_VALUES[sr.name]
    for k in (0, 1, 4):
        z, p = pool[:k], pool[len(pool) - k:]
        for a in pool:
            for kernels in (sr, sp.CountingSemiring(sr)):
                assert kernels.axpy(z, p, a) is not z, (kernels, z, a)
        assert z == pool[:k]


# -- counting wrapper -------------------------------------------------------------

def test_counting_wrapper_is_observationally_identical():
    for base in ALL:
        wrapped = sp.CountingSemiring(base)
        samples = base.default_samples()
        for a in samples:
            assert wrapped.closure(a) == base.closure(a)
            for b in samples:
                assert wrapped.add(a, b) == base.add(a, b)
                assert wrapped.mul(a, b) == base.mul(a, b)


def test_counting_wrapper_counts_every_call():
    counter = sp.OpCounter()
    sr = sp.CountingSemiring(MP, counter)
    sr.add(1, 2)
    sr.add(0, 0)
    sr.mul(1, 2)
    sr.closure(-1)
    assert asdict(counter) == {
        "add_count": 2, "mul_count": 1, "closure_count": 1, "inverse_count": 0,
    }


def test_counting_wrapper_matches_base_on_matrix_products():
    rng = random.Random(7)
    base_mat = sp.Matrix(3, 3, [rng.randint(-5, 0) for _ in range(9)], MP)
    counter = sp.OpCounter()
    wrapped_sr = sp.CountingSemiring(MP, counter)
    wrapped_mat = sp.Matrix(3, 3, base_mat.to_flat(), wrapped_sr)
    assert wrapped_mat.mul(wrapped_mat).to_flat() == base_mat.mul(base_mat).to_flat()
    # 3x3 product: 27 muls, 18 adds
    assert counter.mul_count == 27
    assert counter.add_count == 18


def test_counting_wrapper_delegates_flags_and_eq():
    sr = sp.CountingSemiring(NN)
    assert sr.approximate and sr.has_inverses and not sr.idempotent
    assert sr.name == "nonneg-real"
    assert sr.eq(1.0, 1.0 + 1e-14)
    assert sr.counter.add_count == 0


def test_registry_names():
    assert list(sp.REGISTRY) == [
        "nonneg-real", "max-plus", "max-plus-complete", "max-min", "boolean",
    ]
    with pytest.raises(sp.UnknownSemiring):
        sp.get_semiring("min-plus")
