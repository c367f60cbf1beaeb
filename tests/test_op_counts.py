"""Exact semiring operation counts of every solver and kernel.

The counts do not depend on the values, so they are pinned as formulas
where one is known and as literals elsewhere.  Any change to the
accumulation order or to the recursions must keep them.
"""

import random

import pytest

import semipath as sp
from semipath import Matrix, SymToeplitz

MP = sp.get_semiring("max-plus")
MPC = sp.get_semiring("max-plus-complete")
MM = sp.get_semiring("max-min")
BOOL = sp.get_semiring("boolean")

# instances on which every pivot closure of the draws below exists
INSTANCES = [MP, MPC, MM, BOOL]
SIZES = [1, 2, 3, 5, 8]

# (muls, adds) per size n; closures are n in every case.  LEVINSON is
# 2n^2 - n muls and (n - 1)(2n - 1) adds
LEVINSON = {1: (1, 0), 2: (6, 3), 3: (15, 10), 5: (45, 36), 8: (120, 105)}
BORDERING_SOLVE = {1: (1, 0), 2: (10, 4), 3: (33, 18), 5: (145, 100), 8: (568, 448)}
BORDERING_CLOSURE = {1: (0, 0), 2: (6, 2), 3: (24, 12), 5: (120, 80), 8: (504, 392)}


def draw(sr, rng, k):
    return [rng.randint(-10, 0) if sr is MP else sr.sample(rng) for _ in range(k)]


def counted(sr):
    wrapped = sp.CountingSemiring(sr)
    return wrapped, wrapped.counter


def pair(counter):
    return counter.mul_count, counter.add_count


@pytest.mark.parametrize("sr", INSTANCES, ids=lambda s: s.name)
@pytest.mark.parametrize("n", SIZES)
def test_durbin_recompute_counts(sr, n):
    # the constant-time pivot update: no O(k) dot product per pivot.  The
    # benchmark's usual call passes "recompute", which selects nothing.
    rng = random.Random(f"durbin:{sr.name}:{n}")
    r0, *r = draw(sr, rng, n + 1)
    wrapped, counter = counted(sr)
    sp.durbin(wrapped, r0, r, "recompute")
    assert pair(counter) == (n * n + n - 1, n * n - 1)
    assert counter.closure_count == n and counter.inverse_count == 0


@pytest.mark.parametrize("sr", INSTANCES, ids=lambda s: s.name)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("variant", ["recursive", "fallback"])
def test_update_variant_counts(sr, n, variant):
    # the names the benchmark passes on its other requests change no count:
    # each solve through the positional slot costs what the call without a
    # name costs, whose formulas the tests above and below pin
    rng = random.Random(f"update:{sr.name}:{n}")
    r0, *r = draw(sr, rng, n + 1)
    b = draw(sr, rng, n)
    for solve, args in ((sp.durbin, (r0, r)), (sp.levinson, (r0, r[:-1], b))):
        counts = []
        for extra in ((), (variant,)):
            wrapped, counter = counted(sr)
            solve(wrapped, *args, *extra)
            counts.append((pair(counter), counter.closure_count, counter.inverse_count))
        assert counts[0] == counts[1]


@pytest.mark.parametrize("sr", INSTANCES, ids=lambda s: s.name)
@pytest.mark.parametrize("n", SIZES)
def test_matvec_counts(sr, n):
    rng = random.Random(f"matvec:{sr.name}:{n}")
    wrapped, counter = counted(sr)
    r0, *tail = draw(sr, rng, n)
    SymToeplitz(r0, tail, wrapped).matvec(draw(sr, rng, n))
    assert pair(counter) == (n * n, n * (n - 1))


@pytest.mark.parametrize("sr", INSTANCES, ids=lambda s: s.name)
@pytest.mark.parametrize("n", SIZES)
def test_levinson_and_bordering_counts(sr, n):
    rng = random.Random(f"solvers:{sr.name}:{n}")
    r0, *r = draw(sr, rng, n)
    b = draw(sr, rng, n)
    A = draw(sr, rng, n * n)

    wrapped, counter = counted(sr)
    sp.levinson(wrapped, r0, r, b)
    assert pair(counter) == LEVINSON[n] == (2 * n * n - n, (n - 1) * (2 * n - 1))
    assert counter.closure_count == n and counter.inverse_count == 0

    wrapped, counter = counted(sr)
    sp.bordering_solve(Matrix(n, n, A, wrapped), b)
    assert pair(counter) == BORDERING_SOLVE[n] and counter.closure_count == n

    wrapped, counter = counted(sr)
    sp.bordering_closure(Matrix(n, n, A, wrapped))
    assert pair(counter) == BORDERING_CLOSURE[n] and counter.closure_count == n


@pytest.mark.parametrize("sr", INSTANCES, ids=lambda s: s.name)
@pytest.mark.parametrize("k", [0, 1, 2, 7])
def test_border_step_counts_2k_plus_1_muls_and_2k_adds(sr, k):
    rng = random.Random(f"border-step:{sr.name}:{k}")
    z, h, p = (draw(sr, rng, k) for _ in range(3))
    wrapped, counter = counted(sr)
    extended, new, _ = wrapped.border_step(z, h, p, sr.one, sr.one)
    assert len(extended) == k + 1 and extended[-1] is new
    assert pair(counter) == (2 * k + 1, 2 * k)
    assert counter.closure_count == counter.inverse_count == 0


@pytest.mark.parametrize("k", [1, 2, 7])
def test_dot_counts_k_muls_and_k_minus_one_adds(k):
    xs, ys = list(range(k)), list(range(-k, 0))
    wrapped, counter = counted(MP)
    assert wrapped.dot(xs, ys) == max(x + y for x, y in zip(xs, ys))
    assert pair(counter) == (k, k - 1)
    assert counter.closure_count == counter.inverse_count == 0


def test_dot_is_a_left_fold():
    log = []

    class Logged(sp.CountingSemiring):
        def add(self, a, b):
            log.append(("add", a, b))
            return super().add(a, b)

        def mul(self, a, b):
            log.append(("mul", a, b))
            return super().mul(a, b)

    assert Logged(MP).dot([1, 2, 3], [10, 20, 30]) == 33
    assert log == [
        ("mul", 1, 10), ("mul", 2, 20), ("add", 11, 22),
        ("mul", 3, 30), ("add", 22, 33),
    ]


def test_dot_on_empty_input_raises_shape_mismatch():
    with pytest.raises(sp.ShapeMismatch):
        MP.dot([], [])
    # inside a generator a stray StopIteration would become a RuntimeError
    with pytest.raises(sp.ShapeMismatch):
        list(MP.dot(xs, xs) for xs in ([1], []))
