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
  has no negative cycle.
* boolean, for a symmetric matrix: x_i is 1 exactly when the connected
  component of i holds some j with b_j = 1.

Both take the matrix as a list of rows and return a list of Python values:
floats for max-plus (so integer-valued float inputs give exact answers),
the ints 0 and 1 for boolean.
"""

import numpy as np
from scipy.sparse.csgraph import connected_components, csgraph_from_dense, shortest_path


def max_plus_least_solution(rows, b):
    """A* b over max-plus; -inf entries of ``rows`` are missing edges."""
    # null_value=inf keeps the zero weights, that is the 0 entries, as edges
    graph = csgraph_from_dense(-np.array(rows, dtype=float), null_value=np.inf)
    dist = shortest_path(graph, method="J", directed=True)
    return (np.array(b, dtype=float) - dist).max(axis=1).tolist()


def boolean_least_solution(rows, b):
    """A* b over boolean for a symmetric 0/1 matrix ``rows``."""
    _, labels = connected_components(
        csgraph_from_dense(np.array(rows, dtype=float)), directed=False
    )
    labels = labels.tolist()
    reached = {label for label, bj in zip(labels, b) if bj}
    return [1 if label in reached else 0 for label in labels]
