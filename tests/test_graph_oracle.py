"""durbin, levinson and bordering_solve against graph algorithms that share
no code with semipath (``graph_oracle``), typed-equal, up to n = 256, and
the max-plus Toeplitz solvers at n = 1024 against one Dijkstra run.

The max-plus draws converge: Toeplitz lags are at most 0, and a bordering
matrix is w_ij + phi_i - phi_j with w_ij at most 0, so every cycle weighs
at most 0 while single entries can be positive.  Every max-min and boolean
draw converges, and the oracles for both need a symmetric matrix, so their
bordering matrices are symmetric too.  Each entry is -inf (0 on boolean),
a missing edge, with a per-case probability, so the graphs range from
dense to mostly disconnected.  Values are integer-valued floats, so every
sum is exact on both sides, and never -0.0, whose repr differs from 0.0's.
"""

import random

import pytest

pytest.importorskip("scipy")

import semipath as sp
from semipath import Matrix, NEG_INF, POS_INF

from graph_oracle import (
    boolean_least_solution,
    max_min_least_solution,
    max_plus_least_solution,
    max_plus_least_solution_from_one_source,
)
from test_semirings import typed

MP = sp.get_semiring("max-plus")
MM = sp.get_semiring("max-min")
BOOL = sp.get_semiring("boolean")

SIZES = (1, 2, 5, 16, 64, 256)


def cases(n):
    return 1 if n > 64 else 4


def toeplitz_rows(r0, tail):
    lag = [r0, *tail]
    n = len(lag)
    return [[lag[abs(i - j)] for j in range(n)] for i in range(n)]


def weight(rng, missing):
    """An integer-valued float in [-9, 0], or -inf with probability missing."""
    return NEG_INF if rng.random() < missing else float(rng.randint(-9, 0))


def max_plus_rhs(rng, n):
    return [NEG_INF if rng.random() < 0.3 else float(rng.randint(-9, 9)) for _ in range(n)]


@pytest.mark.parametrize("n", SIZES)
def test_max_plus_toeplitz_solvers_match_shortest_paths(n):
    rng = random.Random(f"graph-oracle:max-plus-toeplitz:{n}")
    for _ in range(cases(n)):
        missing = rng.choice((0.2, 0.9))
        r0, r = weight(rng, missing), [weight(rng, missing) for _ in range(n)]
        rows = toeplitz_rows(r0, r[:-1])
        assert typed(sp.durbin(MP, r0, r)) == typed(max_plus_least_solution(rows, r))
        b = max_plus_rhs(rng, n)
        assert typed(sp.levinson(MP, r0, r[:-1], b)) == typed(max_plus_least_solution(rows, b))


@pytest.mark.parametrize("n", (5, 64, 1024))
def test_max_plus_toeplitz_solvers_match_one_dijkstra_run(n):
    # the all-pairs Johnson oracle takes seconds at n = 1024; up to 64 the
    # two oracles are checked against each other too.  Lag k weighs at most
    # -k, so the answers vary along the solution; with weights in [-9, 0]
    # nearly every entry would be max(b)
    rng = random.Random(f"graph-oracle:max-plus-dijkstra:{n}")
    for _ in range(cases(n)):
        missing = rng.choice((0.2, 0.9))
        lag = [NEG_INF if rng.random() < missing else float(-k - rng.randint(0, 9))
               for k in range(n + 1)]
        r0, r = lag[0], lag[1:]
        rows = toeplitz_rows(r0, r[:-1])
        b = max_plus_rhs(rng, n)
        for rhs, got in ((r, sp.durbin(MP, r0, r)), (b, sp.levinson(MP, r0, r[:-1], b))):
            want = max_plus_least_solution_from_one_source(rows, rhs)
            assert typed(got) == typed(want)
            if n <= 64:
                assert typed(want) == typed(max_plus_least_solution(rows, rhs))


@pytest.mark.parametrize("n", SIZES)
def test_max_plus_bordering_solve_matches_shortest_paths(n):
    rng = random.Random(f"graph-oracle:max-plus-bordering:{n}")
    for _ in range(cases(n)):
        missing = rng.choice((0.2, 0.9))
        phi = [rng.randint(0, 20) for _ in range(n)]
        rows = [[weight(rng, missing) + phi[i] - phi[j] for j in range(n)] for i in range(n)]
        b = max_plus_rhs(rng, n)
        got = sp.bordering_solve(Matrix.from_rows(rows, MP), b).to_flat()
        assert typed(got) == typed(max_plus_least_solution(rows, b))


def max_min_value(rng, missing):
    """-inf with probability missing, else +inf or an integer-valued float
    in [-9, 9]."""
    if rng.random() < missing:
        return NEG_INF
    return POS_INF if rng.random() < 0.05 else float(rng.randint(-9, 9))


@pytest.mark.parametrize("n", SIZES)
def test_max_min_toeplitz_solvers_match_widest_paths(n):
    rng = random.Random(f"graph-oracle:max-min-toeplitz:{n}")
    for _ in range(cases(n)):
        missing = rng.choice((0.2, 0.9))
        r0, r = max_min_value(rng, missing), [max_min_value(rng, missing) for _ in range(n)]
        rows = toeplitz_rows(r0, r[:-1])
        assert typed(sp.durbin(MM, r0, r)) == typed(max_min_least_solution(rows, r))
        b = [max_min_value(rng, 0.3) for _ in range(n)]
        assert typed(sp.levinson(MM, r0, r[:-1], b)) == typed(max_min_least_solution(rows, b))


@pytest.mark.parametrize("n", SIZES)
def test_max_min_bordering_solve_matches_widest_paths(n):
    rng = random.Random(f"graph-oracle:max-min-bordering:{n}")
    for _ in range(cases(n)):
        missing = rng.choice((0.2, 0.9))
        rows = [[NEG_INF] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = max_min_value(rng, missing)
        b = [max_min_value(rng, 0.3) for _ in range(n)]
        got = sp.bordering_solve(Matrix.from_rows(rows, MM), b).to_flat()
        assert typed(got) == typed(max_min_least_solution(rows, b))


def symmetric_rows(n, values):
    """The n-by-n symmetric matrix whose upper triangle holds ``values`` row
    by row: sorted values make every row right of the diagonal, and every
    column above it, a sorted run."""
    rows = [[NEG_INF] * n for _ in range(n)]
    upper = iter(values)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(upper)
    return rows


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("descending", (False, True), ids=("ascending", "descending"))
def test_max_min_solvers_match_widest_paths_on_sorted_inputs(n, descending):
    # the pruned max-min dot replaces its running max at every term of an
    # ascending sum and at none after the first of a descending one; lags
    # and dense entries here are sorted runs.  They lie in [-9, 0] and b in
    # [-9, 9] or +inf, so b_i above every width shows through, and the
    # answers vary even where the largest entries join every node
    rng = random.Random(f"graph-oracle:max-min-sorted:{n}:{descending}")

    def run(count, missing):
        return sorted((weight(rng, missing) for _ in range(count)), reverse=descending)

    for _ in range(cases(n)):
        missing = rng.choice((0.0, 0.2))
        r0, *r = run(n + 1, missing)
        rows = toeplitz_rows(r0, r[:-1])
        assert typed(sp.durbin(MM, r0, r)) == typed(max_min_least_solution(rows, r))
        b = [max_min_value(rng, 0.3) for _ in range(n)]
        assert typed(sp.levinson(MM, r0, r[:-1], b)) == typed(max_min_least_solution(rows, b))
        dense = symmetric_rows(n, run(n * (n + 1) // 2, missing))
        got = sp.bordering_solve(Matrix.from_rows(dense, MM), b).to_flat()
        assert typed(got) == typed(max_min_least_solution(dense, b))


def bits(rng, n, density):
    return [1 if rng.random() < density else 0 for _ in range(n)]


@pytest.mark.parametrize("n", SIZES)
def test_boolean_toeplitz_solvers_match_connected_components(n):
    rng = random.Random(f"graph-oracle:boolean-toeplitz:{n}")
    for _ in range(cases(n)):
        r0, r = rng.randint(0, 1), bits(rng, n, rng.choice((1 / n, 3 / n)))
        rows = toeplitz_rows(r0, r[:-1])
        assert typed(sp.durbin(BOOL, r0, r)) == typed(boolean_least_solution(rows, r))
        b = bits(rng, n, 0.1)
        assert typed(sp.levinson(BOOL, r0, r[:-1], b)) == typed(boolean_least_solution(rows, b))


@pytest.mark.parametrize("n", SIZES)
def test_boolean_bordering_solve_matches_connected_components(n):
    rng = random.Random(f"graph-oracle:boolean-bordering:{n}")
    for _ in range(cases(n)):
        density = rng.choice((1 / n, 2 / n, 0.5))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = 1 if rng.random() < density else 0
        b = bits(rng, n, 0.1)
        got = sp.bordering_solve(Matrix.from_rows(rows, BOOL), b).to_flat()
        assert typed(got) == typed(boolean_least_solution(rows, b))
