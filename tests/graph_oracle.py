"""Least solutions of x = A x (+) b from graph algorithms that share no code
with semipath.

The solvers, ``residual_check`` and ``series_closure`` all sum through the
instance's ``dot``, so a fault there could skew a solver and the series
oracle alike.  These references take the matrix as a graph with an edge
i -> j for every entry A[i][j] other than the semiring's zero, and answer
with ``scipy.sparse.csgraph``:

* max-plus: x_i is the largest b_j plus the weight of a walk from i to j,
  the longest walk being a shortest path on the negated weights (Johnson's
  algorithm, which allows the negative weights of positive entries).  A
  convergent input has no cycle of positive weight, so the negated graph
  has no negative cycle.  Where every entry is at most 0, as on a
  convergent Toeplitz input, one Dijkstra run answers for every i: from a
  super-source joined to each j with a finite b_j by an edge of weight
  max(b) - b_j, over the reversed edges, the distance to i is
  max(b) - x_i.
* max-min, for a symmetric matrix: x_i is the largest min(w, b_j), w the
  width of a widest path from i to j (+inf for j = i).  In an undirected
  graph a widest path runs inside a maximum spanning forest (Hu, 1961), so
  w is the smallest entry on the forest path from i to j.
* boolean, for a symmetric matrix: x_i is 1 exactly when the connected
  component of i holds some j with b_j = 1.

Each takes the matrix as a list of rows and returns a list of Python
values: floats for max-plus and max-min (so integer-valued float inputs
give exact answers), the ints 0 and 1 for boolean.
"""

import numpy as np
from scipy.sparse.csgraph import (
    connected_components,
    csgraph_from_dense,
    dijkstra,
    minimum_spanning_tree,
    shortest_path,
)


def max_plus_least_solution(rows, b):
    """A* b over max-plus; -inf entries of ``rows`` are missing edges."""
    # null_value=inf keeps the zero weights, that is the 0 entries, as edges
    graph = csgraph_from_dense(-np.array(rows, dtype=float), null_value=np.inf)
    dist = shortest_path(graph, method="J", directed=True)
    return (np.array(b, dtype=float) - dist).max(axis=1).tolist()


def max_plus_least_solution_from_one_source(rows, b):
    """A* b over max-plus for ``rows`` whose entries are all at most 0, by
    one Dijkstra run; -inf entries of ``rows`` are missing edges."""
    b = np.array(b, dtype=float)
    n = len(b)
    finite = b > -np.inf
    if not finite.any():
        return b.tolist()
    shift = b[finite].max()
    # node n is the super-source; edge j -> i carries -rows[i][j], so a path
    # from n through j to i reads a walk from i to j backwards
    weights = np.full((n + 1, n + 1), np.inf)
    weights[:n, :n] = -np.array(rows, dtype=float).T
    weights[n, :n][finite] = shift - b[finite]
    # null_value=inf keeps the zero weights as edges
    graph = csgraph_from_dense(weights, null_value=np.inf)
    dist = dijkstra(graph, directed=True, indices=n)[:n]
    return (shift - dist).tolist()


def max_min_least_solution(rows, b):
    """A* b over max-min for a symmetric matrix ``rows``; -inf entries are
    missing edges and the diagonal is not read."""
    a = np.array(rows, dtype=float)
    n = len(a)
    values = np.unique(a[a > -np.inf]).tolist()
    # rank the entries from len(values) for the smallest down to 1 for the
    # largest: every edge stays positive, so none reads as missing, and a
    # minimum spanning forest of the ranks is a maximum one of the entries
    ranks = np.zeros((n, n))
    present = a > -np.inf
    ranks[present] = len(values) - np.searchsorted(values, a[present])
    np.fill_diagonal(ranks, 0)
    forest = minimum_spanning_tree(ranks).tocoo()
    adjacent = [[] for _ in range(n)]
    for i, j, rank in zip(forest.row.tolist(), forest.col.tolist(), forest.data.tolist()):
        w = values[len(values) - int(rank)]
        adjacent[i].append((j, w))
        adjacent[j].append((i, w))
    x = []
    for source in range(n):
        width, todo = {source: np.inf}, [source]
        while todo:
            i = todo.pop()
            for j, w in adjacent[i]:
                if j not in width:
                    width[j] = min(width[i], w)
                    todo.append(j)
        x.append(max(min(w, b[j]) for j, w in width.items()))
    return x


def boolean_least_solution(rows, b):
    """A* b over boolean for a symmetric 0/1 matrix ``rows``."""
    _, labels = connected_components(
        csgraph_from_dense(np.array(rows, dtype=float)), directed=False
    )
    labels = labels.tolist()
    reached = {label for label, bj in zip(labels, b) if bj}
    return [1 if label in reached else 0 for label in labels]
