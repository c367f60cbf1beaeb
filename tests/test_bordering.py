"""Bordering closure/solve against the power-series oracle and enumeration."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import semipath as sp
from semipath import Matrix, NEG_INF, POS_INF

from dense_reference import exchange, is_persymmetric, on_generic_kernels, transpose, zeros
from test_semirings import KERNEL_VALUES, typed

MP = sp.get_semiring("max-plus")
BOOL = sp.get_semiring("boolean")
NN = sp.get_semiring("nonneg-real")


def random_closable_maxplus(rng, n):
    """Nonpositive entries keep every pivot closure defined."""
    return Matrix(n, n, [rng.randint(-9, 0) for _ in range(n * n)], MP)


def random_boolean(rng, n):
    return Matrix(n, n, [rng.randint(0, 1) for _ in range(n * n)], BOOL)


# -- closure ---------------------------------------------------------------

def test_closure_of_zero_matrix_is_identity():
    for n in (1, 2, 5):
        Z = zeros(n, n, MP)
        assert sp.bordering_closure(Z).equals(Matrix.identity(n, MP))
        assert sp.series_closure(Z, max_terms=1).equals(Matrix.identity(n, MP))


def test_closure_base_case_is_scalar_star():
    assert sp.bordering_closure(Matrix.from_rows([[-4]], MP)).to_rows() == [[0]]
    out = sp.bordering_closure(Matrix.from_rows([[0.5]], NN))
    assert NN.eq(out[0, 0], 2.0)


def test_closure_maxplus_example():
    A = Matrix.from_rows([[-1, -2], [-3, 0]], MP)
    assert sp.bordering_closure(A).to_rows() == [[0, -2], [-3, 0]]


def test_closure_requires_square():
    with pytest.raises(sp.ShapeMismatch):
        sp.bordering_closure(zeros(2, 3, MP))


def test_closure_undefined_reports_step():
    with pytest.raises(sp.ClosureUndefined) as exc:
        sp.bordering_closure(Matrix.from_rows([[2.0]], NN))
    assert exc.value.step == 1

    A = Matrix.from_rows([[0.5, 0.1], [0.1, 5.0]], NN)
    with pytest.raises(sp.ClosureUndefined) as exc:
        sp.bordering_closure(A)
    assert exc.value.step == 2

    B = Matrix.from_rows([[-1, 5], [5, -1]], MP)
    with pytest.raises(sp.ClosureUndefined) as exc:
        sp.bordering_closure(B)
    assert exc.value.step == 2


def assert_closure_undefined_at(A, b, want):
    """bordering_closure and bordering_solve succeed where ``want`` is None
    and raise ClosureUndefined at step ``want`` otherwise."""
    for solve in (lambda: sp.bordering_closure(A), lambda: sp.bordering_solve(A, b)):
        if want is None:
            solve()
        else:
            with pytest.raises(sp.ClosureUndefined) as exc:
                solve()
            assert exc.value.step == want, (A.to_rows(), b)


def test_max_plus_closure_undefined_names_the_first_block_with_a_positive_cycle():
    # a max-plus matrix has a closure exactly when no cycle weighs above 0,
    # that is when its negated weights hold no negative cycle.  Entries are
    # w_ij + phi_i - phi_j, so a cycle weighs what its w's sum to while
    # single entries can be positive; a few w's are positive
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    np = pytest.importorskip("numpy")

    def has_positive_cycle(rows):
        # a self-loop is tested apart, in case scipy ignores the diagonal
        if any(rows[i][i] > 0 for i in range(len(rows))):
            return True
        # null_value=inf keeps the zero weights as edges
        graph = csgraph.csgraph_from_dense(-np.array(rows, dtype=float), null_value=np.inf)
        try:
            csgraph.shortest_path(graph, method="BF", directed=True)
        except csgraph.NegativeCycleError:
            return True
        return False

    rng = random.Random(59)
    steps = []
    for n in range(1, 11):
        for _ in range(40):
            phi = [rng.randint(0, 6) for _ in range(n)]
            bad = rng.choice((0.0, 0.02, 0.1))
            rows = [[NEG_INF if rng.random() < 0.3
                     else (rng.randint(1, 2) if rng.random() < bad else rng.randint(-4, 0))
                     + phi[i] - phi[j] for j in range(n)] for i in range(n)]
            b = [NEG_INF if rng.random() < 0.3 else rng.randint(-9, 9) for _ in range(n)]
            want = next((k for k in range(1, n + 1)
                         if has_positive_cycle([row[:k] for row in rows[:k]])), None)
            assert_closure_undefined_at(Matrix.from_rows(rows, MP), b, want)
            steps.append(want)
    assert steps.count(None) >= 100 and set(range(1, 9)) <= set(steps), steps


def test_nonneg_real_closure_undefined_names_the_first_block_with_perron_root_one():
    # a nonnegative matrix A has a closure (I - A)^-1 >= 0 exactly when its
    # Perron root, the spectral radius, is below 1, and the Perron root of a
    # leading block does not fall as the block grows: the first leading block
    # without a closure is the first with Perron root >= 1.  The pivots and
    # the eigenvalues round differently, so a draw abstains when a block that
    # decides the step has a Perron root within BAND of 1
    np = pytest.importorskip("numpy")
    band = 1e-9
    rng = random.Random(61)
    steps, abstained = [], 0
    for n in range(1, 11):
        for _ in range(40):
            scale = rng.uniform(0.0, 2.0 / n)
            rows = [[rng.uniform(0.0, 1.1) if i == j
                     else (0.0 if rng.random() < 0.3 else rng.uniform(0.0, scale))
                     for j in range(n)] for i in range(n)]
            b = [rng.uniform(0.0, 1.0) for _ in range(n)]
            a = np.array(rows)
            rho = [np.abs(np.linalg.eigvals(a[:k, :k])).max() for k in range(1, n + 1)]
            want = next((k for k, rho_k in enumerate(rho, 1) if rho_k >= 1), None)
            if any(abs(rho_k - 1) <= band for rho_k in rho[:want]):
                abstained += 1
                continue
            assert_closure_undefined_at(Matrix.from_rows(rows, NN), b, want)
            steps.append(want)
    assert abstained <= 4, abstained
    assert steps.count(None) >= 100 and set(range(1, 9)) <= set(steps), steps


def test_closure_pivot_outside_carrier_reports_step():
    # p = C g = 2 * 1e308 overflows, so the size-2 pivot h . p + 0 is 0 * inf = NaN
    A = Matrix.from_rows([[0.5, 1e308], [0, 0]], NN)
    with pytest.raises(sp.OutsideCarrier) as exc:
        sp.bordering_closure(A)
    assert exc.value.step == 2
    assert str(exc.value) == "pivot nan at size 2 is outside the nonneg-real carrier"


def test_quasi_inverse_identity_holds_exactly():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        A = random_closable_maxplus(rng, n)
        C = sp.bordering_closure(A)
        I = Matrix.identity(n, MP)
        assert C.equals(I.add(A.mul(C)))
        assert C.equals(I.add(C.mul(A)))


def assert_closure_matches_the_series(A):
    """bordering_closure(A) equals series_closure(A) on the instance's dot,
    which the closure runs too, and on the generic one, which it does not."""
    closure = typed(sp.bordering_closure(A).to_flat())
    assert closure == typed(sp.series_closure(A).to_flat())
    assert closure == typed(sp.series_closure(on_generic_kernels(A)).to_flat())


def test_bordering_agrees_with_series_oracle_seeded():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 8)
        assert_closure_matches_the_series(random_closable_maxplus(rng, n))
    for _ in range(30):
        n = rng.randint(1, 6)
        assert_closure_matches_the_series(random_boolean(rng, n))


@settings(max_examples=50)
@given(st.integers(1, 5), st.data())
def test_bordering_agrees_with_series_oracle_property(n, data):
    entries = data.draw(st.lists(st.integers(-9, 0), min_size=n * n, max_size=n * n))
    assert_closure_matches_the_series(Matrix(n, n, entries, MP))


def test_closure_of_persymmetric_is_persymmetric():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 5)
        raw = random_closable_maxplus(rng, n)
        E = exchange(n, MP)
        A = raw.add(E.mul(transpose(raw)).mul(E))
        C = sp.bordering_closure(A)
        assert is_persymmetric(C)
        assert E.mul(C).equals(transpose(C).mul(E))


def bordering_outcome(solver, *args):
    """The typed entries of the solver's result, or the type, step and typed
    value of the SolverUndefined it raised."""
    try:
        out = solver(*args)
    except sp.SolverUndefined as exc:
        return type(exc), exc.step, typed([exc.value])
    return typed(out.to_flat())


@pytest.mark.parametrize("sr", list(sp.REGISTRY.values()), ids=lambda s: s.name)
def test_bordering_sums_match_the_generic_dot(sr):
    # the steps take p = C g, q = h^T C and the pivot sum through the
    # instance's dot; CountingSemiring keeps the generic Semiring.dot.
    # Every other draw keeps to values whose star exists, so that nonneg-real
    # and max-plus also reach the full size and not only an early error
    pool = KERNEL_VALUES[sr.name]
    closable = [v for v in pool if sr.closure(v) is not None]
    counted = sp.CountingSemiring(sr)
    rng = random.Random(f"bordering-sums:{sr.name}")
    solved = 0
    for n in range(1, 8):
        for draw in range(40):
            values = pool if draw % 2 else closable
            data = [rng.choice(values) for _ in range(n * n)]
            b = [rng.choice(values) for _ in range(n)]
            A, A_counted = Matrix(n, n, data, sr), Matrix(n, n, data, counted)
            closure = bordering_outcome(sp.bordering_closure, A)
            assert closure == bordering_outcome(sp.bordering_closure, A_counted), (data,)
            solution = bordering_outcome(sp.bordering_solve, A, b)
            assert solution == bordering_outcome(sp.bordering_solve, A_counted, b), (data, b)
            solved += n >= 5 and isinstance(solution, list)
    assert solved >= 20, solved


def test_max_plus_complete_bordering_takes_the_dot_fallback():
    # p = C g and q = h^T C open with +inf + -inf, which is NaN under IEEE
    # and -inf under mul; MaxPlus's dot keeps that NaN, so MaxPlusComplete's
    # falls back to the generic Semiring.dot
    MPC = sp.get_semiring("max-plus-complete")
    assert math.isnan(sp.MaxPlus.dot(MPC, [POS_INF], [NEG_INF]))
    A = sp.SymToeplitz(1, [NEG_INF], MPC).expand()
    assert sp.bordering_closure(A).to_rows() == [[POS_INF, NEG_INF], [NEG_INF, POS_INF]]
    assert sp.bordering_solve(A, [0, 0]).to_flat() == [POS_INF, POS_INF]


class RowUpdateSpy(sp.MaxPlusComplete):
    """max-plus-complete that records the scalar of every ``axpy`` call."""

    def __init__(self):
        self.scalars = []

    def axpy(self, z, p, a):
        self.scalars.append(a)
        return super().axpy(z, p, a)


# bordering_closure calls axpy only for its rank-one update, column j as
# axpy(C[:, j], v, q_j), so the spy records each q_j
@pytest.mark.parametrize("rows,b,scalars", [
    # r0 = 1 stars to +inf, so q = h^T C is +inf at every step
    (sp.SymToeplitz(1, [1, -2], sp.get_semiring("max-plus-complete")).expand().to_rows(),
     [0, -1, 2], {POS_INF}),
    # h = [-inf] makes q = [-inf] at size 2; node 1 has a positive loop, so
    # column 1 of the size-2 closure is +inf and h = [-inf, 0] gives
    # q = [-inf, +inf] at size 3, where g = [-inf, -inf] makes v = p u = -inf
    ([[-1, 0, NEG_INF], [NEG_INF, 1, NEG_INF], [NEG_INF, 0, -3]], [0, NEG_INF, 2],
     {POS_INF, NEG_INF}),
    # g = [-inf] makes p = [-inf], so v = p u is -inf against the finite q_j
    ([[-1, NEG_INF, 0], [0, -1, NEG_INF], [-2, 0, -3]], [0, NEG_INF, -1], {0}),
    # the lag -inf puts -inf in h, so q_j = -inf beside a finite q_j
    (sp.SymToeplitz(0, [NEG_INF, -1], sp.get_semiring("max-plus-complete")).expand().to_rows(),
     [0, 0, 0], {NEG_INF, -1}),
], ids=["toeplitz-inf-star", "inf-star-and-neg-inf-p", "neg-inf-p", "toeplitz-neg-inf-lag"])
def test_max_plus_complete_row_update_branches_match_the_oracles(rows, b, scalars):
    spy = RowUpdateSpy()
    A = Matrix.from_rows(rows, spy)
    A_counted = Matrix.from_rows(rows, sp.CountingSemiring(spy))
    closure = bordering_outcome(sp.bordering_closure, A)
    assert scalars <= set(spy.scalars), spy.scalars
    star = sp.series_closure(A)
    assert closure == bordering_outcome(sp.bordering_closure, A_counted) == typed(star.to_flat())
    solution = bordering_outcome(sp.bordering_solve, A, b)
    assert solution == bordering_outcome(sp.bordering_solve, A_counted, b)
    assert solution == typed(star.mul(Matrix.column(b, spy)).to_flat())


# -- solve --------------------------------------------------------------------

def test_solve_zero_rhs_gives_zero():
    rng = random.Random(14)
    A = random_closable_maxplus(rng, 4)
    out = sp.bordering_solve(A, [NEG_INF] * 4)
    assert out.to_flat() == [NEG_INF] * 4


def test_solve_base_case():
    out = sp.bordering_solve(Matrix.from_rows([[-2]], MP), [-5])
    assert out.to_flat() == [-5]  # 0 * -5 under (max, +)


def test_solve_accepts_column_matrix_and_list():
    A = Matrix.from_rows([[-1, -2], [-2, -1]], MP)
    as_list = sp.bordering_solve(A, [0, -1]).to_flat()
    as_col = sp.bordering_solve(A, Matrix.column([0, -1], MP)).to_flat()
    assert as_list == as_col == [0, -1]


def test_solve_is_fixpoint_and_matches_closure_product():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randint(1, 6)
        A = random_closable_maxplus(rng, n)
        b = [rng.randint(-9, 0) for _ in range(n)]
        x = sp.bordering_solve(A, b)
        direct = sp.series_closure(A).mul(Matrix.column(b, MP))
        assert x.to_flat() == direct.to_flat()
        # fixpoint: x = A x + b
        ax = A.mul(x).to_flat()
        assert all(MP.add(ax[i], b[i]) == x.to_flat()[i] for i in range(n))


def test_solve_validation():
    A = Matrix.identity(2, MP)
    with pytest.raises(sp.ShapeMismatch):
        sp.bordering_solve(A, [0])
    with pytest.raises(sp.InstanceMismatch):
        sp.bordering_solve(A, Matrix.column([0, 0], BOOL))
    with pytest.raises(sp.ShapeMismatch):
        sp.bordering_solve(zeros(2, 3, MP), [0, 0])


def test_solve_overflow_raises_outside_carrier_at_its_size():
    # x[0] = 1e308 is finite; at size 2 the new entry 1e308 + 1e308 overflows
    A = Matrix.from_rows([[-1, NEG_INF], [1e308, -1]], MP)
    with pytest.raises(sp.OutsideCarrier) as exc:
        sp.bordering_solve(A, [1e308, 1e308])
    assert exc.value.step == 2
    assert str(exc.value) == "solution entry inf at size 2 is outside the max-plus carrier"
    # the new entry 1e10 stays finite; the update x[0] + 1e308 * 1e10 does not
    A = Matrix.from_rows([[0, 1e308], [0, 0]], NN)
    with pytest.raises(sp.OutsideCarrier) as exc:
        sp.bordering_solve(A, [1, 1e10])
    assert exc.value.step == 2


# -- series stopping rules ----------------------------------------------------

def test_series_converges_for_contracting_float():
    out = sp.series_closure(Matrix.from_rows([[0.5]], NN))
    assert abs(out[0, 0] - 2.0) <= 2.0 * 1e-10
    # spectral radius 0.9 needs ~250 terms to sustain the 1e-12 rule; the
    # default float budget of 4n + 265 covers it
    for rows, x_want in (([[0.5, 0.25], [0.25, 0.5]], [4.0, 4.0]),
                         ([[0.9]], [10.0]),
                         ([[0.4, 0.5], [0.5, 0.4]], [10.0, 10.0])):
        star = sp.series_closure(Matrix.from_rows(rows, NN))
        x = star.mul(Matrix.column([1.0] * len(rows), NN)).to_flat()
        assert all(NN.eq(a, b) for a, b in zip(x, x_want)), rows


def test_series_budget_is_the_knob_for_slow_contraction():
    # spectral radius 0.95 needs ~500 terms to sustain the 1e-12 rule, more
    # than the default 4n + 265 float budget; a caller-supplied budget succeeds
    T = Matrix.from_rows([[0.6, 0.35], [0.35, 0.6]], NN)
    with pytest.raises(sp.NotStabilized):
        sp.series_closure(T)
    star = sp.series_closure(T, max_terms=1000)
    x = star.mul(Matrix.column([1.0, 2.0], NN)).to_flat()
    assert NN.eq(x[0], 88 / 3) and NN.eq(x[1], 92 / 3)


def test_series_not_stabilized_signals_divergence():
    with pytest.raises(sp.NotStabilized) as exc:
        sp.series_closure(Matrix.from_rows([[1.5]], NN))
    assert exc.value.terms == 269  # 4 * 1 + 265 on a float carrier
    # spectral radius 1 and 1.05: the larger float budget still ends in an error
    for rows in ([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.55], [0.55, 0.5]]):
        with pytest.raises(sp.NotStabilized) as exc:
            sp.series_closure(Matrix.from_rows(rows, NN))
        assert exc.value.terms == 273
    with pytest.raises(sp.NotStabilized) as exc:
        sp.series_closure(Matrix.from_rows([[1]], MP))
    assert exc.value.terms == 54  # 4 * 1 + 50 on an exact carrier


def test_series_overflow_is_not_stabilized():
    # the partial sums reach inf near 1024 terms and then stop changing
    with pytest.raises(sp.NotStabilized) as exc:
        sp.series_closure(Matrix.from_rows([[2.0]], NN), max_terms=1100)
    assert exc.value.terms == 1100
    # on an exact carrier too: from the second term on both sums are inf
    with pytest.raises(sp.NotStabilized):
        sp.series_closure(Matrix.from_rows([[1e308]], MP))


def test_series_of_nilpotent_float_matrix_stops_on_exact_equality():
    A = Matrix.from_rows([[0, 0.5, 0.25], [0, 0, 0.5], [0, 0, 0]], NN)
    star = sp.series_closure(A)
    assert star.equals(sp.bordering_closure(A))
    assert star.to_rows() == [[1.0, 0.5, 0.5], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]]


def test_series_stabilizes_within_n_terms_for_nonpositive_maxplus():
    rng = random.Random(16)
    for _ in range(10):
        n = rng.randint(2, 5)
        A = random_closable_maxplus(rng, n)
        # longest-path interpretation: paths longer than n-1 edges never help
        assert sp.series_closure(A, max_terms=n).equals(sp.series_closure(A))


def test_series_is_total_on_max_plus_complete():
    # entries from {-inf, +inf, -3..2}: positive cycles are common, and the
    # finite partial sums never reach the +inf star they imply
    MPC = sp.get_semiring("max-plus-complete")
    rng = random.Random(2006)
    values = [NEG_INF, POS_INF, *range(-3, 3)]
    closed_cycles = 0
    for k in range(300):
        n = 1 + k % 7
        A = Matrix(n, n, [rng.choice(values) for _ in range(n * n)], MPC)
        star = sp.series_closure(A)
        assert star.to_flat() == sp.bordering_closure(A).to_flat()
        closed_cycles += POS_INF in star.data and POS_INF not in A.data
    assert closed_cycles > 0


def test_series_on_max_plus_complete_needs_n_terms_to_close_cycles():
    MPC = sp.get_semiring("max-plus-complete")
    A = Matrix.from_rows([[-1, 2, NEG_INF], [-1, -1, NEG_INF], [0, NEG_INF, -5]], MPC)
    with pytest.raises(sp.NotStabilized):
        sp.series_closure(A, max_terms=2)
    assert sp.series_closure(A, max_terms=3).to_rows() == [
        [POS_INF, POS_INF, NEG_INF], [POS_INF, POS_INF, NEG_INF], [POS_INF, POS_INF, 0],
    ]


def test_series_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        sp.series_closure(Matrix.identity(2, BOOL), max_terms=0)


# -- exhaustive Boolean enumeration ---------------------------------------------

def test_enumerate_zero_matrix_forces_unique_solution():
    A = zeros(3, 3, BOOL)
    b = [1, 0, 1]
    sols = sp.enumerate_solutions(A, b)
    assert len(sols) == 1
    assert sols[0].to_flat() == b


def test_enumerate_identity_with_zero_rhs_accepts_everything():
    A = Matrix.identity(3, BOOL)
    sols = sp.enumerate_solutions(A, [0, 0, 0])
    assert len(sols) == 8


def test_enumerate_guards():
    with pytest.raises(sp.EnumerationTooLarge):
        sp.enumerate_solutions(Matrix.identity(13, BOOL), [0] * 13)
    with pytest.raises(sp.UnsupportedInstance):
        sp.enumerate_solutions(Matrix.identity(2, MP), [0, 0])
    with pytest.raises(sp.ShapeMismatch):
        sp.enumerate_solutions(Matrix.identity(4, BOOL), Matrix(2, 2, [0] * 4, BOOL))
    with pytest.raises(sp.InstanceMismatch):
        sp.enumerate_solutions(Matrix.identity(2, BOOL), Matrix.column([0, 0], MP))


def test_bordering_solve_is_least_enumerated_solution():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        A = random_boolean(rng, n)
        b = [rng.randint(0, 1) for _ in range(n)]
        x = sp.bordering_solve(A, b)
        sols = sp.enumerate_solutions(A, b)
        assert any(x.to_flat() == s.to_flat() for s in sols)
        assert all(x.leq(s) for s in sols)
