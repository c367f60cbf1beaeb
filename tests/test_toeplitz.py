"""Generalized Durbin/Levinson recursions: examples, pivot update, state traces."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import semipath as sp
from semipath import Matrix, NEG_INF, POS_INF, SymToeplitz
from semipath.cli import InstanceFile, random_bellman, random_yule_walker, run_solve

from pivot_reference import beta_update, dot_pivot_solve, dot_pivot_steps

MP = sp.get_semiring("max-plus")
MPC = sp.get_semiring("max-plus-complete")
MM = sp.get_semiring("max-min")
BOOL = sp.get_semiring("boolean")
NN = sp.get_semiring("nonneg-real")


def yule_walker_residual(sr, r0, r, y):
    return sp.residual_check(SymToeplitz(r0, r[:-1], sr), y, r)


# -- durbin -----------------------------------------------------------------

def test_durbin_size_one_is_scalar_star_times_rhs():
    assert sp.durbin(MP, -1, [-7]) == [-7]
    assert NN.eq(sp.durbin(NN, 0.5, [0.3])[0], 0.6)


def test_durbin_maxplus_example():
    y = sp.durbin(MP, -1, [-2, -3])
    assert y == [-2, -3]
    assert yule_walker_residual(MP, -1, [-2, -3], y)


def test_durbin_nonneg_example():
    y = sp.durbin(NN, 0.5, [0.25, 0.1])
    assert NN.eq(y[0], 0.8) and NN.eq(y[1], 0.6)


def test_durbin_outputs_satisfy_fixpoint_seeded():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randint(1, 8)
        r0 = rng.randint(-9, 0)
        r = [rng.randint(-9, 0) for _ in range(n)]
        y = sp.durbin(MP, r0, r)
        assert yule_walker_residual(MP, r0, r, y)


@settings(max_examples=60)
@given(st.integers(-9, 0), st.lists(st.integers(-9, 0), min_size=1, max_size=7))
def test_durbin_fixpoint_property(r0, r):
    y = sp.durbin(MP, r0, r)
    assert yule_walker_residual(MP, r0, r, y)


def test_durbin_matches_bordering_on_expanded_system():
    rng = random.Random(22)
    for _ in range(25):
        n = rng.randint(1, 7)
        r0 = rng.randint(-9, 0)
        r = [rng.randint(-9, 0) for _ in range(n)]
        T = SymToeplitz(r0, r[:-1], MP).expand()
        assert sp.durbin(MP, r0, r) == sp.bordering_solve(T, r).to_flat()


def _outcome(solve):
    try:
        return "ok", solve()
    except sp.ClosureUndefined as exc:
        return "ClosureUndefined", exc.step


def test_toeplitz_and_bordering_solvers_agree_on_the_failing_step():
    # entries up to +2 make some pivot positive (no max-plus star) in most
    # draws; the failing step ranges over 1..8
    rng = random.Random(31)

    def draw():
        return NEG_INF if rng.random() < 0.05 else rng.randint(-6, 2)

    failed = 0
    for n in range(1, 9):
        for _ in range(60):
            r0 = draw()
            r = [draw() for _ in range(n)]
            b = [draw() for _ in range(n)]
            T = SymToeplitz(r0, r[:-1], MP).expand()
            dur = _outcome(lambda: sp.durbin(MP, r0, r))
            lev = _outcome(lambda: sp.levinson(MP, r0, r[:-1], b))
            bor_r = _outcome(lambda: sp.bordering_solve(T, r).to_flat())
            bor_b = _outcome(lambda: sp.bordering_solve(T, b).to_flat())
            assert dur == bor_r, (r0, r)
            assert lev == bor_b, (r0, r, b)
            assert dur[0] == lev[0] and (dur[0] == "ok" or dur[1] == lev[1]), (r0, r, b)
            failed += dur[0] != "ok"
    assert 0 < failed < 8 * 60


def test_durbin_closure_undefined_steps():
    with pytest.raises(sp.ClosureUndefined) as exc:
        sp.durbin(MP, 1, [-2])
    assert exc.value.step == 1
    # y(1) = 5, then the pivot r0 + r1*y1 = max(-1, 10) > 0 has no star
    with pytest.raises(sp.ClosureUndefined) as exc:
        sp.durbin(MP, -1, [5, -1])
    assert exc.value.step == 2


def test_durbin_rejects_empty_rhs():
    with pytest.raises(sp.ShapeMismatch):
        sp.durbin(MP, -1, [])


def test_unknown_variant():
    inst = InstanceFile("max-plus", -1, [-2], [0, -1])
    for call in (lambda: sp.durbin(MP, -1, [-2], variant="always"),
                 lambda: sp.levinson(MP, -1, [-2], [0, -1], "bogus"),
                 lambda: run_solve(inst, "levinson", "bogus", True)):
        with pytest.raises(ValueError):
            call()


# -- levinson -----------------------------------------------------------------

def test_levinson_size_one():
    assert sp.levinson(MP, -1, [], [-4]) == [-4]
    assert NN.eq(sp.levinson(NN, 0.5, [], [3.0])[0], 6.0)


def test_levinson_maxplus_example():
    x = sp.levinson(MP, -1, [-2], [0, -1])
    assert x == [0, -1]
    assert sp.residual_check(SymToeplitz(-1, [-2], MP), x, [0, -1])


def test_levinson_matches_closure_product():
    # T* = [[0,-2],[-2,0]] so x = T* b
    T = SymToeplitz(-1, [-2], MP).expand()
    star = sp.series_closure(T)
    assert star.to_rows() == [[0, -2], [-2, 0]]
    x = star.mul(Matrix.column([0, -1], MP)).to_flat()
    assert sp.levinson(MP, -1, [-2], [0, -1]) == x


def test_levinson_reduces_to_durbin_on_self_generated_rhs():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 7)
        r0 = rng.randint(-9, 0)
        r_full = [rng.randint(-9, 0) for _ in range(n)]
        assert sp.levinson(MP, r0, r_full[: n - 1], r_full) == sp.durbin(MP, r0, r_full)
    r0 = 0.4
    r_full = [0.1, 0.05, 0.02]
    lev = sp.levinson(NN, r0, r_full[:2], r_full)
    dur = sp.durbin(NN, r0, r_full)
    assert all(NN.eq(a, b) for a, b in zip(lev, dur))


def test_levinson_validation():
    with pytest.raises(sp.ShapeMismatch):
        sp.levinson(MP, -1, [-2], [0])  # r must have len(b) - 1 entries
    with pytest.raises(sp.ShapeMismatch):
        sp.levinson(MP, -1, [], [])


def test_levinson_closure_undefined_step():
    with pytest.raises(sp.ClosureUndefined) as exc:
        sp.levinson(MP, -1, [5], [0, 0])
    assert exc.value.step == 2


def test_overflow_raises_outside_carrier_at_its_size():
    # x[0] = y[0] = 1e308 / (1 - 0.9) overflows to inf at size 1
    with pytest.raises(sp.OutsideCarrier) as exc:
        sp.levinson(NN, 0.9, [0], [1e308, 0])
    assert exc.value.step == 1
    assert str(exc.value) == "solution entry inf at size 1 is outside the nonneg-real carrier"
    with pytest.raises(sp.OutsideCarrier) as exc:
        sp.durbin(NN, 0.9, [1e308, 0])
    assert exc.value.step == 1
    # mu = 1e308 stays finite at size 2; the update of x[0] to 2e308 does not
    with pytest.raises(sp.OutsideCarrier) as exc:
        sp.levinson(NN, 0, [0.5], [1.5e308, 0])
    assert exc.value.step == 2


def test_typed_errors_carry_the_failing_value():
    # the pivot without a star, at sizes 1 and 2
    with pytest.raises(sp.ClosureUndefined) as exc:
        sp.durbin(MP, 1, [-2])
    assert (exc.value.step, exc.value.value) == (1, 1)
    with pytest.raises(sp.ClosureUndefined) as exc:
        sp.levinson(NN, 0.5, [0.5], [1.0, 1.0])
    assert exc.value.step == 2 and NN.eq(exc.value.value, 1.0)
    # the new entry, and the updated entry, that overflowed
    with pytest.raises(sp.OutsideCarrier) as exc:
        sp.durbin(NN, 0.9, [1e308, 0])
    assert (exc.value.step, exc.value.value) == (1, POS_INF)
    with pytest.raises(sp.OutsideCarrier) as exc:
        sp.levinson(NN, 0, [0.5], [1.5e308, 0])
    assert (exc.value.step, exc.value.value) == (2, POS_INF)


# -- pivot update -----------------------------------------------------------------

def test_beta_update_examples():
    assert beta_update(MP, -1, -3) == -1
    out = beta_update(NN, 0.5, 0.3)
    assert NN.eq(out, 0.545)
    # alpha = zero annihilates the correction term
    assert beta_update(MP, -2, NEG_INF) == -2
    assert beta_update(NN, 0.25, 0) == 0.25


def test_beta_update_undefined_cases():
    assert beta_update(NN, 1.5, 0.1) is None          # no star
    assert beta_update(MPC, 1, 0) is None             # star is +inf, no inverse


def test_recursive_variant_needs_no_inverse():
    # max-min inverts only its unit; a positive max-plus-complete pivot has
    # star +inf, which has no inverse.  The reference recomputes every pivot
    # by its dot product.
    assert sp.durbin(MM, 3, [1, 2]) == dot_pivot_solve(MM, 3, [1, 2])
    assert sp.levinson(MPC, 1, [1], [1, 1]) == \
        dot_pivot_solve(MPC, 1, [1], [1, 1]) == [POS_INF, POS_INF]


def test_fallback_matches_recompute_when_inverse_missing():
    # positive pivot on the completed instance: star is +inf, inverse gone;
    # the pivot update still agrees with the dot-product reference
    assert sp.levinson(MPC, 1, [1], [1, -2]) == dot_pivot_solve(MPC, 1, [1], [1, -2])
    assert sp.durbin(MPC, 1, [1, -2]) == dot_pivot_solve(MPC, 1, [1, -2]) == \
        [POS_INF, POS_INF]


def test_variants_agree_maxplus():
    # benchmarks/workloads.py passes a name from VARIANTS positionally to
    # durbin and levinson, and benchmarks/layers.py passes "recompute" to
    # run_solve; every name gives the same result
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(1, 8)
        r0 = rng.randint(-9, 0)
        r = [rng.randint(-9, 0) for _ in range(n)]
        b = [rng.randint(-9, 0) for _ in range(n + 1)]
        base = dot_pivot_solve(MP, r0, r)
        lev_base = dot_pivot_solve(MP, r0, r, b)
        insts = {"durbin": InstanceFile("max-plus", r0, r),
                 "levinson": InstanceFile("max-plus", r0, r, b)}
        reports = []
        for variant in sp.VARIANTS:
            assert sp.durbin(MP, r0, r, variant) == base
            assert sp.levinson(MP, r0, r, b, variant) == lev_base
            for op, inst in insts.items():
                report = run_solve(inst, op, variant, True)
                assert report.pop("elapsed") >= 0 and report["residual_ok"]
                reports.append(report)
        assert reports == reports[:2] * len(sp.VARIANTS)


def _trace(steps):
    """Every SolveState field, or the error's type, step, value and message."""
    try:
        return [(s.k, s.y, s.alpha, s.beta, s.x, s.mu) for s in steps()]
    except sp.SolverUndefined as exc:
        return type(exc).__name__, exc.step, exc.value, str(exc)


def _agree(sr, got, want):
    """Equal type and repr, recursing into lists and tuples; floats of an
    approximate carrier compare under ``sr.eq``."""
    if isinstance(want, (list, tuple)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(_agree(sr, g, w) for g, w in zip(got, want)))
    if sr.approximate and isinstance(want, float):
        return isinstance(got, float) and sr.eq(got, want)
    return type(got) is type(want) and repr(got) == repr(want)


@pytest.mark.parametrize("name", sorted(sp.REGISTRY))
def test_every_variant_matches_recompute(name):
    # the pivot update against the reference that recomputes it by its dot
    # product; nonneg-real floats agree under sr.eq, everything else exactly
    sr = sp.get_semiring(name)
    rng = random.Random(f"variants:{name}")
    errors = 0
    for n in range(1, 33):
        raw = lambda k: [sr.sample(rng) for _ in range(k)]
        draws = [
            (*random_yule_walker(sr, n, rng), random_bellman(sr, n, rng)),
            (raw(1)[0], raw(n), (raw(1)[0], raw(n - 1), raw(n))),
        ]
        for r0, r, (bl0, bl_r, b) in draws:
            for args, steps in (((r0, r), sp.durbin_steps),
                                ((bl0, bl_r, b), sp.levinson_steps)):
                want = _trace(lambda: dot_pivot_steps(sr, *args))
                errors += isinstance(want, tuple)
                got = _trace(lambda: steps(sr, *args))
                assert _agree(sr, got, want), (n, args)
    # the raw draws reach typed errors on every instance with a partial star
    assert (errors > 0) is (not sr.complete)


# -- state traces --------------------------------------------------------------

def test_durbin_prefix_property():
    rng = random.Random(26)
    r0 = -1
    r = [rng.randint(-9, 0) for _ in range(7)]
    for state in sp.durbin_steps(MP, r0, r):
        assert state.y == sp.durbin(MP, r0, r[: state.k])
        assert state.x is None and state.mu is None


def test_durbin_state_matches_bordering_on_truncations():
    r0, r = -2, [-1, -4, -3, -7]
    for state in sp.durbin_steps(MP, r0, r):
        T = SymToeplitz(r0, r[: state.k - 1], MP).expand()
        assert state.y == sp.bordering_solve(T, r[: state.k]).to_flat()


@pytest.mark.parametrize("name", sorted(sp.REGISTRY))
def test_pivot_update_identity_holds_on_every_step(name):
    # beta_{k+1} = beta_k + s_k alpha_k, where s_k is the value the size-k
    # step starred: s_k = r[k-2::-1] . y_{k-1} + r[k-1], s_1 = r[0]
    sr = sp.get_semiring(name)
    rng = random.Random(f"pivot:{name}")
    pairs = defined = 0
    for _ in range(3):  # three draw passes from the one stream
        for n in range(1, 41):
            r0, r = random_yule_walker(sr, n, rng)
            bl0, bl_r, b = random_bellman(sr, n, rng)
            for r_used, states in (
                (r, list(sp.durbin_steps(sr, r0, r))),
                (bl_r, list(sp.levinson_steps(sr, bl0, bl_r, b))),
            ):
                for k in range(1, len(states)):
                    prev, cur = states[k - 1], states[k]
                    if k == 1:
                        s = r_used[0]
                    else:
                        s = sr.add(sr.dot(r_used[k - 2::-1], states[k - 2].y), r_used[k - 1])
                    expect = sr.add(prev.beta, sr.mul(s, prev.alpha))
                    assert _agree(sr, cur.beta, expect), (n, k)
                    pairs += 1
                    # the paper's closed form, wherever (beta*)^-1 exists
                    closed = beta_update(sr, prev.beta, prev.alpha)
                    if closed is not None:
                        assert _agree(sr, cur.beta, closed), (n, k)
                        defined += 1
    assert pairs == 3 * 2 * sum(range(40))
    # the closed form is defined on every pair except where a positive
    # max-plus-complete pivot has star +inf, which has no inverse
    assert defined == (244 if name == "max-plus-complete" else pairs)


def test_levinson_states_carry_both_solutions():
    r0, r, b = -1, [-2, -3], [0, -1, -5]
    states = list(sp.levinson_steps(MP, r0, r, b))
    assert [s.k for s in states] == [1, 2, 3]
    assert states[-1].x == sp.levinson(MP, r0, r, b)
    for state in states[:-1]:
        # x prefix solves the truncated system with the truncated rhs
        assert state.x == sp.levinson(MP, r0, r[: state.k - 1], b[: state.k])
    assert states[0].mu == states[0].x[0]


def test_levinson_size_one_state():
    (state,) = list(sp.levinson_steps(MP, -1, [], [-4]))
    assert state.k == 1 and state.x == [-4] and state.y == [] and state.alpha is None


# -- residual check ----------------------------------------------------------------

def test_residual_check_detects_perturbation():
    T = SymToeplitz(-1, [-2], MP)
    assert sp.residual_check(T, [-2, -3], [-2, -3])
    # bump one coordinate to a strictly larger value: no longer a fixpoint
    assert not sp.residual_check(T, [0, -3], [-2, -3])


def test_residual_check_passes_float_max_plus_solutions():
    # -3 U(0, 1) draws, as benchmarks/workloads.py's float max-plus probe makes
    # them at seed 7, sizes 2..10.  The solvers and the residual check add the
    # floats in another order, and on 7 of these instances the two sides
    # differ in the last bits.
    rng = random.Random("7:float-max-plus")
    last_bits = []
    for op in ("durbin", "levinson"):
        for case in range(300):
            n = 2 + case % 9
            vals = [-3.0 * rng.random() for _ in range(2 * n + 1)]
            if op == "durbin":
                r0, tail, rhs = vals[0], vals[1:n], vals[1:n + 1]
                sol = sp.durbin(MP, r0, rhs)
            else:
                r0, tail, rhs = vals[0], vals[1:n], vals[n:2 * n]
                sol = sp.levinson(MP, r0, tail, rhs)
            T = SymToeplitz(r0, tail, MP)
            assert sp.residual_check(T, sol, rhs), (op, case)
            if sol != [MP.add(t, c) for t, c in zip(T.matvec(sol), rhs)]:
                last_bits.append((op, case))
    assert last_bits == [("durbin", 178), ("durbin", 197), ("levinson", 56),
                         ("levinson", 107), ("levinson", 192), ("levinson", 233),
                         ("levinson", 260)]


def test_residual_check_zero_case():
    T = SymToeplitz(-1, [-2], MP)
    assert sp.residual_check(T, [NEG_INF, NEG_INF], [NEG_INF, NEG_INF])


def test_residual_check_shape_guard():
    with pytest.raises(sp.ShapeMismatch):
        sp.residual_check(SymToeplitz(-1, [-2], MP), [0], [0, 0])


# -- other instances ------------------------------------------------------------

def test_durbin_on_max_min_and_boolean():
    y = sp.durbin(MM, 3, [5, -2, 7])
    assert yule_walker_residual(MM, 3, [5, -2, 7], y)
    y = sp.durbin(BOOL, 1, [0, 1])
    assert yule_walker_residual(BOOL, 1, [0, 1], y)


def test_levinson_boolean_is_least_solution():
    rng = random.Random(28)
    for _ in range(20):
        n = rng.randint(1, 4)
        r0 = rng.randint(0, 1)
        r = [rng.randint(0, 1) for _ in range(n - 1)]
        b = [rng.randint(0, 1) for _ in range(n)]
        x = sp.levinson(BOOL, r0, r, b)
        T = SymToeplitz(r0, r, BOOL).expand()
        sols = sp.enumerate_solutions(T, b)
        xcol = Matrix.column(x, BOOL)
        assert any(xcol.to_flat() == s.to_flat() for s in sols)
        assert all(xcol.leq(s) for s in sols)
