"""Dense test references: the zero and exchange matrices, the transpose,
persymmetry, and a matrix moved onto the generic kernels.

The solvers need only matrix sums, products and the closure, so ``Matrix``
carries none of these.  They are plain functions over ``Matrix.from_rows``
and ``Matrix.to_rows``.  Persymmetry, symmetry about the anti-diagonal, is
the premise of the Toeplitz recursions: a symmetric Toeplitz matrix is
persymmetric, so is its closure, and so the leading closure times the new
column is the reversed self-generated solution.

``Matrix.mul``, and so ``series_closure``, sums through the instance's
``dot``, the kernel the solvers run.  ``on_generic_kernels`` moves a matrix
onto ``CountingSemiring``, which keeps the generic ``Semiring.dot``, so the
series oracle taken there shares no summation kernel with the solvers.
"""

from semipath import CountingSemiring, Matrix, ShapeMismatch


def on_generic_kernels(A):
    """A's entries over ``CountingSemiring(A.semiring)``."""
    return Matrix(A.rows, A.cols, A.data, CountingSemiring(A.semiring))


def zeros(rows, cols, sr):
    """The rows-by-cols matrix of ``sr.zero``."""
    return Matrix.from_rows([[sr.zero] * cols for _ in range(rows)], sr)


def exchange(n, sr):
    """The anti-identity: ones on the anti-diagonal, zero elsewhere.

    Left-multiplying a column by it reverses the column; it squares to the
    identity.
    """
    return Matrix.from_rows(
        [[sr.one if i + j == n - 1 else sr.zero for j in range(n)] for i in range(n)], sr
    )


def transpose(A):
    return Matrix.from_rows([list(col) for col in zip(*A.to_rows())], A.semiring)


def is_persymmetric(A):
    """Whether A equals E A^T E entrywise under the instance's eq, that is
    A[i][j] = A[n-1-j][n-1-i]; ShapeMismatch unless A is square."""
    if not A.is_square:
        raise ShapeMismatch("persymmetry is defined for square matrices")
    rows, n, eq = A.to_rows(), A.rows, A.semiring.eq
    return all(
        eq(rows[i][j], rows[n - 1 - j][n - 1 - i]) for i in range(n) for j in range(n)
    )
