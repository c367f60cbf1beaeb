"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they happen; without ``-s`` they still appear for any failure.
"""

import random

import numpy as np

import semipath as sp
from semipath import Matrix, SymToeplitz
from semipath.cli import random_bellman, random_yule_walker

from dense_reference import exchange, on_generic_kernels, transpose
from pivot_reference import dot_pivot_solve

NN = sp.get_semiring("nonneg-real")
MP = sp.get_semiring("max-plus")
MPC = sp.get_semiring("max-plus-complete")
MM = sp.get_semiring("max-min")
BOOL = sp.get_semiring("boolean")

REL_TOL = 1e-10


def _report(num, description, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num}] {description}: {status}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _rel_close(got, want, tol=REL_TOL):
    return abs(got - want) <= tol * max(abs(want), 1e-300)


def _dense_solve(r0, tail, rhs):
    """Independent oracle: classical dense solve of (I - T) u = rhs."""
    n = len(rhs)
    T = np.asarray(SymToeplitz(r0, tail, NN).expand().to_rows(), dtype=float)
    return np.linalg.solve(np.eye(n) - T, np.asarray(rhs, dtype=float))


def _series_solutions(A, rhs):
    """A* rhs by the series oracle on the instance's dot, which the solvers
    run too, and on the generic one through CountingSemiring."""
    for M in (A, on_generic_kernels(A)):
        yield sp.series_closure(M).mul(Matrix.column(rhs, M.semiring)).to_flat()


def test_criterion_1_oracle_equivalence_maxplus():
    rng = random.Random(1001)
    failures = []
    for case in range(200):
        n = rng.randint(2, 8)
        r0, r = random_yule_walker(MP, n, rng)
        y = sp.durbin(MP, r0, r)
        T = SymToeplitz(r0, r[:-1], MP).expand()
        if any(y != want for want in _series_solutions(T, r)):
            failures.append(("durbin", case))
        if not sp.residual_check(SymToeplitz(r0, r[:-1], MP), y, r):
            failures.append(("durbin-residual", case))

        r0b, rb, b = random_bellman(MP, n, rng)
        x = sp.levinson(MP, r0b, rb, b)
        T = SymToeplitz(r0b, rb, MP).expand()
        if any(x != want for want in _series_solutions(T, b)):
            failures.append(("levinson", case))
        if not sp.residual_check(SymToeplitz(r0b, rb, MP), x, b):
            failures.append(("levinson-residual", case))
    _report(1, "durbin/levinson equal the series oracle exactly on 200 "
               "max-plus instances", failures)


def test_criterion_2_classical_reduction_nonneg_real():
    rng = random.Random(1002)
    failures = []

    y = sp.durbin(NN, 0.5, [0.25, 0.1])
    if not (_rel_close(y[0], 0.8) and _rel_close(y[1], 0.6)):
        failures.append(("fixed-case", y))

    for case in range(100):
        n = rng.randint(2, 32)
        r0, r = random_yule_walker(NN, n, rng)
        got = sp.durbin(NN, r0, r)
        want = _dense_solve(r0, r[:-1], r)
        if not all(_rel_close(g, w) for g, w in zip(got, want)):
            failures.append(("durbin", case))

        r0b, rb, b = random_bellman(NN, n, rng)
        got = sp.levinson(NN, r0b, rb, b)
        want = _dense_solve(r0b, rb, b)
        if not all(_rel_close(g, w) for g, w in zip(got, want)):
            failures.append(("levinson", case))
    _report(2, "durbin/levinson match the dense (I - T) u = rhs solve within "
               "1e-10 relative on 100 instances", failures)


def test_criterion_3_least_solution_boolean():
    rng = random.Random(1003)
    failures = []
    for case in range(50):
        n = rng.randint(1, 4)
        r0, r, b = random_bellman(BOOL, n, rng)
        T = SymToeplitz(r0, r, BOOL)
        lev = Matrix.column(sp.levinson(BOOL, r0, r, b), BOOL)
        bor = sp.bordering_solve(T.expand(), b)
        solutions = sp.enumerate_solutions(T.expand(), b)
        if not solutions:
            failures.append(("no-solution", case))
            continue
        if not all(lev.leq(s) for s in solutions):
            failures.append(("levinson-not-least", case))
        if not all(bor.leq(s) for s in solutions):
            failures.append(("bordering-not-least", case))
        if lev.to_flat() != bor.to_flat():
            failures.append(("disagree", case))
    _report(3, "bordering/levinson outputs are <= all 2^n enumerated Boolean "
               "solutions on 50 instances", failures)


def test_criterion_4_quasi_inverse_and_persymmetry():
    rng = random.Random(1004)
    failures = []
    for case in range(100):
        n = rng.randint(1, 6)
        if case % 2:
            A = Matrix(n, n, [rng.randint(-10, 0) for _ in range(n * n)], MP)
        else:
            A = Matrix(n, n, [rng.randint(0, 1) for _ in range(n * n)], BOOL)
        sr = A.semiring
        star = sp.bordering_closure(A)
        I = Matrix.identity(n, sr)
        if not star.equals(I.add(A.mul(star))):
            failures.append(("left-quasi-inverse", case))
        if not star.equals(I.add(star.mul(A))):
            failures.append(("right-quasi-inverse", case))

    for case in range(50):
        n = rng.randint(2, 6)
        r0, r = random_yule_walker(MP, n - 1, rng)
        T = SymToeplitz(r0, r, MP).expand()
        star = sp.bordering_closure(T)
        E = exchange(n, MP)
        if not E.mul(star).equals(transpose(star).mul(E)):
            failures.append(("persymmetry", case))
    _report(4, "A* = I + A A* exactly on 100 closable matrices; "
               "E T* = (T*)^T E for symmetric Toeplitz", failures)


def test_criterion_5_variant_agreement():
    # the solvers update the pivot in constant time; the reference
    # recomputes it from its dot product r0 (+) r[:k] . y[:k] at every step
    rng = random.Random(1001)  # replay criterion 1's instance stream
    failures = []
    completed = 0
    for case in range(200):
        n = rng.randint(2, 8)
        r0, r = random_yule_walker(MP, n, rng)
        r0b, rb, b = random_bellman(MP, n, rng)
        try:
            y2 = dot_pivot_solve(MP, r0, r)
            x2 = dot_pivot_solve(MP, r0b, rb, b)
        except sp.SolverUndefined:
            continue
        completed += 1
        if sp.durbin(MP, r0, r) != y2:
            failures.append(("maxplus-durbin", case))
        if sp.levinson(MP, r0b, rb, b) != x2:
            failures.append(("maxplus-levinson", case))

    rng = random.Random(1002)  # and criterion 2's
    for case in range(100):
        n = rng.randint(2, 32)
        r0, r = random_yule_walker(NN, n, rng)
        r0b, rb, b = random_bellman(NN, n, rng)
        try:
            y2 = dot_pivot_solve(NN, r0, r)
            x2 = dot_pivot_solve(NN, r0b, rb, b)
        except sp.SolverUndefined:
            continue
        completed += 1
        y1 = sp.durbin(NN, r0, r)
        x1 = sp.levinson(NN, r0b, rb, b)
        if not all(_rel_close(a, c) for a, c in zip(y1, y2)):
            failures.append(("nonneg-durbin", case))
        if not all(_rel_close(a, c) for a, c in zip(x1, x2)):
            failures.append(("nonneg-levinson", case))
    if completed == 0:
        failures.append(("reference-never-completed",))
    _report(5, "the updated pivot agrees with the recomputed dot-product "
               "pivot on every completed criterion 1-2 instance", failures)


def test_criterion_6_operation_count_scaling():
    rng = random.Random(1006)
    failures = []

    def durbin_muls(n):
        r0, r = random_yule_walker(MP, n, rng)
        sr = sp.CountingSemiring(MP)
        sp.durbin(sr, r0, r)
        return sr.counter.mul_count

    def levinson_muls(n):
        r0, r, b = random_bellman(MP, n, rng)
        sr = sp.CountingSemiring(MP)
        sp.levinson(sr, r0, r, b)
        return sr.counter.mul_count

    def bordering_muls(n):
        r0, r = random_yule_walker(MP, n, rng)
        sr = sp.CountingSemiring(MP)
        sp.bordering_closure(SymToeplitz(r0, r[:-1], sr).expand())
        return sr.counter.mul_count

    quad_lo, quad_hi = 3.5, 4.5
    cubic_lo, cubic_hi = 7.0, 9.0

    ratio = durbin_muls(256) / durbin_muls(128)
    print(f"  durbin mul ratio 256/128: {ratio:.3f}")
    if not quad_lo <= ratio <= quad_hi:
        failures.append(("durbin", ratio))

    ratio = levinson_muls(256) / levinson_muls(128)
    print(f"  levinson mul ratio 256/128: {ratio:.3f}")
    if not quad_lo <= ratio <= quad_hi:
        failures.append(("levinson", ratio))

    ratio = bordering_muls(128) / bordering_muls(64)
    print(f"  bordering mul ratio 128/64: {ratio:.3f}")
    if not cubic_lo <= ratio <= cubic_hi:
        failures.append(("bordering", ratio))
    _report(6, "mul-count doubling ratios: durbin/levinson in [3.5, 4.5], "
               "bordering closure in [7, 9]", failures)


def test_criterion_7_scalar_closure_table():
    failures = []
    checks = [
        ("nonneg 0.5", NN.closure(0.5) is not None and _rel_close(NN.closure(0.5), 2.0)),
        ("nonneg 1.5", NN.closure(1.5) is None),
        ("maxplus -3", MP.closure(-3) == 0),
        ("maxplus 0", MP.closure(0) == 0),
        ("maxplus 2", MP.closure(2) is None),
        ("maxplus-complete 2", MPC.closure(2) == sp.POS_INF),
        ("maxplus-complete -1", MPC.closure(-1) == 0),
        ("maxmin 17", MM.closure(17) == sp.POS_INF),
        ("maxmin -inf", MM.closure(sp.NEG_INF) == sp.POS_INF),
    ]
    failures = [name for name, ok in checks if not ok]
    _report(7, "documented scalar closure behaviours reproduce exactly", failures)


def test_criterion_8_axiom_suite():
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

        def contains(self, v):
            return isinstance(v, int)

        def sample(self, rng):
            return rng.randint(-5, 5)

    failures = []
    for sr in (NN, MP, MPC, MM, BOOL):
        report = sp.axiom_suite(sr)
        bad = [k for k, v in report.items() if not v]
        if bad:
            failures.append((sr.name, bad))
    negative = sp.axiom_suite(BrokenMul(), samples=[1, 2, 3])
    if negative["mul_associative"]:
        failures.append(("broken-mul", "associativity unexpectedly passed"))
    _report(8, "axioms hold for all five instances; broken control fails "
               "multiplication associativity", failures)
