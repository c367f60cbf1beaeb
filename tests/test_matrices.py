"""Dense matrix algebra over semirings and the compact Toeplitz form."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import semipath as sp
from semipath import Matrix, NEG_INF, POS_INF, SymToeplitz

from dense_reference import exchange, is_persymmetric, transpose, zeros
from test_semirings import KERNEL_VALUES, typed

MP = sp.get_semiring("max-plus")
BOOL = sp.get_semiring("boolean")
NN = sp.get_semiring("nonneg-real")
MM = sp.get_semiring("max-min")


def random_maxplus(rng, n, m=None, lo=-8, hi=0):
    m = n if m is None else m
    return Matrix(n, m, [rng.randint(lo, hi) for _ in range(n * m)], MP)


@st.composite
def maxplus_square_triple(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    mats = []
    for _ in range(3):
        data = draw(st.lists(st.integers(-8, 0), min_size=n * n, max_size=n * n))
        mats.append(Matrix(n, n, data, MP))
    return tuple(mats)


# -- constructors -------------------------------------------------------------

def test_identity_and_zero_shapes():
    I = Matrix.identity(3, MP)
    assert I.to_rows() == [[0, NEG_INF, NEG_INF], [NEG_INF, 0, NEG_INF], [NEG_INF, NEG_INF, 0]]
    Z = zeros(2, 3, MP)
    assert Z.rows == 2 and Z.cols == 3
    assert all(v == NEG_INF for v in Z.to_flat())


def test_exchange_matrix():
    assert exchange(1, BOOL).to_rows() == [[1]]
    E3 = exchange(3, BOOL)
    assert E3.to_rows() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exchange_squares_to_identity(n):
    E = exchange(n, BOOL)
    assert E.mul(E).equals(Matrix.identity(n, BOOL))
    E = exchange(n, MP)
    assert E.mul(E).equals(Matrix.identity(n, MP))


def test_exchange_reverses_columns():
    col = Matrix.column([3, 1, 4, 1], MP)
    rev = exchange(4, MP).mul(col)
    assert rev.to_flat() == [1, 4, 1, 3]


def test_constructor_validation():
    with pytest.raises(sp.ShapeMismatch):
        Matrix(2, 2, [1, 2, 3], MP)
    with pytest.raises(sp.ShapeMismatch):
        Matrix(0, 1, [], MP)
    with pytest.raises(sp.ShapeMismatch):
        Matrix.from_rows([[1, 2], [3]], MP)


# -- arithmetic -----------------------------------------------------------------

def test_add_is_entrywise_max():
    A = Matrix.from_rows([[0, -1], [-2, -3]], MP)
    B = Matrix.from_rows([[-5, 0], [0, -1]], MP)
    assert A.add(B).to_rows() == [[0, 0], [0, -1]]


def test_add_zero_matrix_is_neutral():
    rng = random.Random(0)
    A = random_maxplus(rng, 3)
    assert A.add(zeros(3, 3, MP)).equals(A)


def test_add_idempotent():
    rng = random.Random(1)
    A = random_maxplus(rng, 4)
    assert A.add(A).equals(A)


def test_mul_identity_is_neutral():
    rng = random.Random(2)
    A = random_maxplus(rng, 3)
    I = Matrix.identity(3, MP)
    assert A.mul(I).equals(A)
    assert I.mul(A).equals(A)


def test_mul_example_maxplus():
    A = Matrix.from_rows([[0, -1], [NEG_INF, 0]], MP)
    v = Matrix.column([0, -2], MP)
    assert A.mul(v).to_flat() == [0, -2]


def test_shape_and_instance_mismatch():
    A = Matrix.identity(2, MP)
    B = Matrix.identity(3, MP)
    with pytest.raises(sp.ShapeMismatch):
        A.add(B)
    with pytest.raises(sp.ShapeMismatch):
        Matrix(2, 3, [0] * 6, MP).mul(Matrix(2, 3, [0] * 6, MP))
    with pytest.raises(sp.InstanceMismatch):
        A.add(Matrix.identity(2, BOOL))
    with pytest.raises(sp.InstanceMismatch):
        A.mul(Matrix.identity(2, NN))
    swap = [[0, 1], [1, 0]]
    with pytest.raises(sp.InstanceMismatch):
        Matrix.from_rows(swap, MP).equals(Matrix.from_rows(swap, BOOL))
    with pytest.raises(sp.InstanceMismatch):
        Matrix.from_rows(swap, BOOL).leq(Matrix.from_rows(swap, MM))


@settings(max_examples=40)
@given(maxplus_square_triple())
def test_mul_associative_and_distributive(mats):
    A, B, C = mats
    assert A.mul(B.mul(C)).equals(A.mul(B).mul(C))
    assert A.mul(B.add(C)).equals(A.mul(B).add(A.mul(C)))
    assert B.add(C).mul(A).equals(B.mul(A).add(C.mul(A)))


@pytest.mark.parametrize("sr", list(sp.REGISTRY.values()), ids=lambda s: s.name)
def test_mul_matches_the_generic_dot(sr):
    # each entry of a product is the instance's dot of a row and a column;
    # CountingSemiring keeps the generic Semiring.dot.  The pool holds the
    # sentinels, so max-plus-complete's -inf + inf sums take its fallback
    pool = KERNEL_VALUES[sr.name]
    counted = sp.CountingSemiring(sr)
    rng = random.Random(f"matrix-mul:{sr.name}")
    for _ in range(300):
        n, k, m = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 4)
        a = [rng.choice(pool) for _ in range(n * k)]
        b = [rng.choice(pool) for _ in range(k * m)]
        got = Matrix(n, k, a, sr).mul(Matrix(k, m, b, sr))
        want = Matrix(n, k, a, counted).mul(Matrix(k, m, b, counted))
        assert typed(got.to_flat()) == typed(want.to_flat()), (a, b)


def test_max_plus_complete_product_takes_the_dot_fallback():
    # entry (0, 0) opens with -inf + inf, which is NaN under IEEE and -inf
    # under mul; entry (1, 1) meets inf + -inf in second place, which max skips
    MPC = sp.get_semiring("max-plus-complete")
    assert math.isnan(sp.MaxPlus.dot(MPC, [NEG_INF, -1], [POS_INF, POS_INF]))
    A = Matrix.from_rows([[NEG_INF, -1], [0, POS_INF]], MPC)
    B = Matrix.from_rows([[POS_INF, 2], [POS_INF, NEG_INF]], MPC)
    assert A.mul(B).to_rows() == [[POS_INF, NEG_INF], [POS_INF, 2]]


def test_transpose_involution():
    rng = random.Random(3)
    A = random_maxplus(rng, 3, 5)
    assert transpose(transpose(A)).equals(A)
    assert transpose(A).rows == 5


# -- elementwise order -------------------------------------------------------------

def test_elementwise_leq_examples():
    A = Matrix.from_rows([[-5]], MP)
    B = Matrix.from_rows([[-1]], MP)
    assert A.leq(B)
    assert not B.leq(A)
    assert A.leq(A)
    assert not Matrix.from_rows([[1, 0]], BOOL).leq(Matrix.from_rows([[0, 1]], BOOL))


def test_elementwise_leq_errors():
    with pytest.raises(sp.UnsupportedInstance):
        Matrix.identity(2, NN).leq(Matrix.identity(2, NN))
    with pytest.raises(sp.ShapeMismatch):
        Matrix.identity(2, MP).leq(Matrix.identity(3, MP))
    # shapes are checked before the instance's order
    with pytest.raises(sp.ShapeMismatch):
        Matrix.identity(2, NN).leq(Matrix.identity(3, NN))


# -- Toeplitz expansion --------------------------------------------------------------

def test_expand_size_one():
    assert SymToeplitz(-1, [], MP).expand().to_rows() == [[-1]]


def test_expand_size_two():
    T = SymToeplitz(-1, [-2], MP).expand()
    assert T.to_rows() == [[-1, -2], [-2, -1]]


def test_expand_first_row_follows_lag_rule():
    # lag rule forces r3 in the top-right corner of the 4x4 expansion
    T = SymToeplitz(10, [11, 12, 13], MP).expand()
    assert T.to_rows()[0] == [10, 11, 12, 13]
    assert T.to_rows()[3] == [13, 12, 11, 10]


def test_expand_is_symmetric_and_persymmetric():
    rng = random.Random(4)
    for n in range(1, 7):
        tail = [rng.randint(-9, 0) for _ in range(n - 1)]
        T = SymToeplitz(rng.randint(-9, 0), tail, MP).expand()
        assert T.equals(transpose(T))
        assert is_persymmetric(T)


def test_matvec_matches_expanded_product():
    rng = random.Random(5)
    tail = [rng.randint(-9, 0) for _ in range(4)]
    T = SymToeplitz(-1, tail, MP)
    xs = [rng.randint(-9, 0) for _ in range(5)]
    expected = T.expand().mul(Matrix.column(xs, MP)).to_flat()
    assert T.matvec(xs) == expected


@pytest.mark.parametrize("sr", list(sp.REGISTRY.values()), ids=lambda s: s.name)
def test_matvec_matches_the_generic_dot_and_the_expanded_product(sr):
    # matvec sums each row through the instance's dot over a window of one
    # lag list.  The expanded product runs Matrix.mul on the same kernel;
    # CountingSemiring keeps the generic Semiring.dot, so it shares none
    pool = KERNEL_VALUES[sr.name]
    rng = random.Random(f"matvec:{sr.name}")
    for n in range(1, 10):
        for _ in range(40):
            r0, xs = rng.choice(pool), [rng.choice(pool) for _ in range(n)]
            tail = [rng.choice(pool) for _ in range(n - 1)]
            T = SymToeplitz(r0, tail, sr)
            got = T.matvec(xs)
            generic = SymToeplitz(r0, tail, sp.CountingSemiring(sr)).matvec(xs)
            assert typed(got) == typed(generic), (r0, tail, xs)
            dense = T.expand().mul(Matrix.column(xs, sr)).to_flat()
            assert typed(got) == typed(dense), (r0, tail, xs)


def test_max_plus_complete_matvec_takes_the_dot_fallback():
    # row 0 opens with -inf + inf, which is NaN under IEEE and -inf under mul;
    # MaxPlus's dot keeps that NaN, so MaxPlusComplete's falls back to the
    # generic Semiring.dot
    MPC = sp.get_semiring("max-plus-complete")
    assert math.isnan(sp.MaxPlus.dot(MPC, [NEG_INF, -1], [POS_INF, POS_INF]))
    T = SymToeplitz(NEG_INF, [-1], MPC)
    assert T.matvec([POS_INF, POS_INF]) == [POS_INF, POS_INF]
    assert T.expand().mul(Matrix.column([POS_INF, POS_INF], MPC)).to_flat() == [POS_INF, POS_INF]


def test_matvec_rejects_bad_length():
    with pytest.raises(sp.ShapeMismatch):
        SymToeplitz(0, [1, 2], BOOL).matvec([1, 0])


# -- persymmetry ---------------------------------------------------------------------

def test_identity_is_persymmetric():
    assert is_persymmetric(Matrix.identity(4, BOOL))


def test_non_persymmetric_counterexample():
    # 2x2 persymmetry only constrains the main diagonal; make it unequal
    assert not is_persymmetric(Matrix.from_rows([[1, 1], [0, 0]], BOOL))
    # entry (0, 1) reflects onto (1, 2); give them different values
    assert not is_persymmetric(Matrix.from_rows([[0, -1, -2], [-1, 0, -9], [-5, -1, 0]], MP))


def test_is_persymmetric_agrees_with_anti_transpose_product():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = random_maxplus(rng, n)
        E = exchange(n, MP)
        explicit = E.mul(transpose(A)).mul(E).equals(A)
        assert is_persymmetric(A) == explicit


def test_powers_of_persymmetric_are_persymmetric():
    # Note products of two *distinct* persymmetric matrices need not be
    # persymmetric (A B = E (B A)^T E, so commutation is required); the
    # claim that survives, and the one closure rests on, is about powers
    # of a single matrix.
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        raw = random_maxplus(rng, n)
        E = exchange(n, MP)
        # symmetrize about the anti-diagonal: X + E X^T E is persymmetric
        A = raw.add(E.mul(transpose(raw)).mul(E))
        assert is_persymmetric(A)
        P = A
        for _ in range(3):
            P = P.mul(A)
            assert is_persymmetric(P)


def test_distinct_persymmetric_product_counterexample():
    A = Matrix.from_rows([[0, -2, -8], [-7, 0, -2], [-3, -7, 0]], MP)
    B = Matrix.from_rows([[0, -7, -7], [-2, -2, -7], [-5, -2, 0]], MP)
    assert is_persymmetric(A) and is_persymmetric(B)
    assert not is_persymmetric(A.mul(B))
