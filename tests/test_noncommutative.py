"""Operand order, pinned on a semiring whose multiplication does not commute.

Every registered instance commutes, so a solver that multiplies in the
wrong order still passes on them.  Here a scalar is a 2x2 max-plus matrix:
``add`` is the entrywise max and ``mul`` the max-plus matrix product, which
is associative and distributes over ``add`` but does not commute.  The
solvers need exactly that, so they must equal the series oracle here too.
The instance overrides no kernel, so the generic ``dot``, ``axpy`` and
``border_step`` run, bare and through ``CountingSemiring``.
"""

import random

import pytest

import semipath as sp
from semipath import NEG_INF, CountingSemiring, Matrix, SymToeplitz

from pivot_reference import dot_pivot_steps

MP = sp.get_semiring("max-plus")


def _mat(a00, a01, a10, a11):
    return ((a00, a01), (a10, a11))


class MaxPlus2x2(sp.Semiring):
    """2x2 max-plus matrices, as tuples of rows, under (max, max-plus product).

    A 2x2 matrix is the weighted graph on two nodes.  Its star exists when no
    cycle, a loop or the round trip, has positive weight, and is then
    one (+) a: every longer walk repeats a cycle and weighs no more.
    """

    name = "max-plus-2x2"
    idempotent = True
    zero = _mat(NEG_INF, NEG_INF, NEG_INF, NEG_INF)
    one = _mat(0, NEG_INF, NEG_INF, 0)

    def add(self, a, b):
        return tuple(tuple(map(max, ra, rb)) for ra, rb in zip(a, b))

    def mul(self, a, b):
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return _mat(max(a00 + b00, a01 + b10), max(a00 + b01, a01 + b11),
                    max(a10 + b00, a11 + b10), max(a10 + b01, a11 + b11))

    def closure(self, a):
        (a00, a01), (a10, a11) = a
        if a00 <= 0 and a11 <= 0 and a01 + a10 <= 0:
            return self.add(self.one, a)
        return None

    def contains(self, v):
        return (isinstance(v, tuple) and len(v) == 2
                and all(len(row) == 2 and all(map(MP.contains, row)) for row in v))


M2 = MaxPlus2x2()

#: entries lean non-positive, so about half the systems have a star
ENTRIES = (NEG_INF, NEG_INF, -4, -3, -2, -2, -1, -1, 0, 0, 1)


def _scalar(rng):
    return _mat(*(rng.choice(ENTRIES) for _ in range(4)))


def _oracle(A):
    """series_closure(A), or None when the star does not exist.

    The n scalars stand for 2n max-plus nodes; without a positive cycle the
    partial sums stop changing within 2n terms, so a budget of 2n + 1 that
    runs out means a positive cycle.
    """
    try:
        return sp.series_closure(A, max_terms=2 * A.rows + 1)
    except sp.NotStabilized:
        return None


def _check_solvers(sr, rng, n):
    """Draw one Toeplitz and one general system of size n over ``sr`` and
    compare the four solvers with the series oracle; return whether the
    Toeplitz system was solvable."""
    r0, r, b = _scalar(rng), [_scalar(rng) for _ in range(n)], [_scalar(rng) for _ in range(n)]
    T = SymToeplitz(r0, r[:-1], sr).expand()
    A = Matrix(n, n, [_scalar(rng) for _ in range(n * n)], sr)
    solvable = False
    for M, toeplitz in ((T, True), (A, False)):
        star = _oracle(M)
        if star is None:
            if toeplitz:
                with pytest.raises(sp.ClosureUndefined):
                    sp.durbin(sr, r0, r)
                with pytest.raises(sp.ClosureUndefined):
                    sp.levinson(sr, r0, r[:-1], b)
            with pytest.raises(sp.ClosureUndefined):
                sp.bordering_closure(M)
            with pytest.raises(sp.ClosureUndefined):
                sp.bordering_solve(M, b)
            continue
        x = star.mul(Matrix.column(b, sr)).to_flat()
        if toeplitz:
            solvable = True
            assert sp.durbin(sr, r0, r) == star.mul(Matrix.column(r, sr)).to_flat()
            assert sp.levinson(sr, r0, r[:-1], b) == x
            # the pivot update beta (+) s alpha, against beta from its definition
            assert list(sp.durbin_steps(sr, r0, r)) == list(dot_pivot_steps(sr, r0, r))
            assert (list(sp.levinson_steps(sr, r0, r[:-1], b))
                    == list(dot_pivot_steps(sr, r0, r[:-1], b)))
        assert sp.bordering_closure(M).to_rows() == star.to_rows()
        assert sp.bordering_solve(M, b).to_flat() == x
    return solvable


#: draws per size: an operand-order fault shows mostly from n = 2 on, and
#: the larger sizes cost more and are solvable less often
SIZES = ((1, 20), (2, 40), (3, 30), (4, 12), (5, 6), (6, 4))


def test_instance_is_a_semiring_that_does_not_commute():
    rng = random.Random(0)
    samples = [M2.zero, M2.one] + [_scalar(rng) for _ in range(6)]
    report = sp.axiom_suite(M2, samples)
    assert all(report.values()), report
    assert any(M2.mul(a, b) != M2.mul(b, a) for a in samples for b in samples)


@pytest.mark.parametrize("counted", [False, True], ids=["bare", "counted"])
def test_solvers_match_the_series_oracle_without_commutativity(counted):
    rng = random.Random(5)
    sr = CountingSemiring(M2) if counted else M2
    solvable = sum(_check_solvers(sr, rng, n) for n, count in SIZES for _ in range(count))
    assert solvable >= 40
