"""Dense matrices over a semiring.

Storage is a flat row-major list; matrices are treated as immutable values
and every operation returns a fresh matrix.  Column vectors are n-by-1
matrices, there is no separate vector type.  The compact symmetric Toeplitz
form is ``toeplitz.SymToeplitz``; it builds a Matrix only in ``expand``.
"""

from .errors import InstanceMismatch, ShapeMismatch


class Matrix:
    """A rows-by-cols matrix of carrier values tied to one semiring instance."""

    __slots__ = ("rows", "cols", "data", "semiring")

    def __init__(self, rows, cols, data, semiring):
        if rows < 1 or cols < 1:
            raise ShapeMismatch(f"matrix dimensions must be positive, got {rows}x{cols}")
        data = list(data)
        if len(data) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self.data = data
        self.semiring = semiring

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, semiring):
        return cls(rows, cols, [semiring.zero] * (rows * cols), semiring)

    @classmethod
    def identity(cls, n, semiring):
        data = [semiring.zero] * (n * n)
        for i in range(n):
            data[i * n + i] = semiring.one
        return cls(n, n, data, semiring)

    @classmethod
    def exchange(cls, n, semiring):
        """The anti-identity: ones on the anti-diagonal, zero elsewhere.

        Left-multiplying a column by it reverses the column; it squares to
        the identity.
        """
        data = [semiring.zero] * (n * n)
        for i in range(n):
            data[i * n + (n - 1 - i)] = semiring.one
        return cls(n, n, data, semiring)

    @classmethod
    def from_rows(cls, rows_of_values, semiring):
        rows = len(rows_of_values)
        if rows == 0:
            raise ShapeMismatch("need at least one row")
        cols = len(rows_of_values[0])
        data = []
        for r in rows_of_values:
            if len(r) != cols:
                raise ShapeMismatch("rows have unequal lengths")
            data.extend(r)
        return cls(rows, cols, data, semiring)

    @classmethod
    def column(cls, values, semiring):
        return cls(len(values), 1, list(values), semiring)

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def row_values(self, i):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def to_rows(self):
        return [self.row_values(i) for i in range(self.rows)]

    def to_flat(self):
        return list(self.data)

    @property
    def is_square(self):
        return self.rows == self.cols

    def _check_same_instance(self, other):
        if self.semiring is not other.semiring:
            raise InstanceMismatch(
                f"operands belong to different instances "
                f"({self.semiring!r} vs {other.semiring!r})"
            )

    # -- arithmetic -------------------------------------------------------

    def add(self, other):
        """Entrywise semiring addition."""
        self._check_same_instance(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        sadd = self.semiring.add
        a, b = self.data, other.data
        return Matrix(
            self.rows, self.cols,
            [sadd(a[i], b[i]) for i in range(len(a))],
            self.semiring,
        )

    def mul(self, other):
        """Semiring matrix product: C[i][j] = sum_k A[i][k] * B[k][j]."""
        self._check_same_instance(other)
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        sr = self.semiring
        b, m = other.data, other.cols
        columns = [b[j::m] for j in range(m)]
        out = [sr.dot(row, col) for row in self.to_rows() for col in columns]
        return Matrix(self.rows, m, out, sr)

    def __add__(self, other):
        return self.add(other)

    def __matmul__(self, other):
        return self.mul(other)

    def transpose(self):
        n, m = self.rows, self.cols
        d = self.data
        return Matrix(m, n, [d[i * m + j] for j in range(m) for i in range(n)], self.semiring)

    # -- comparisons -------------------------------------------------------

    def equals(self, other):
        """Entrywise equality under the instance's eq (tolerance-aware for
        floating-point carriers).  Shapes must match."""
        if self.rows != other.rows or self.cols != other.cols:
            return False
        eq = self.semiring.eq
        a, b = self.data, other.data
        return all(eq(a[i], b[i]) for i in range(len(a)))

    def leq(self, other):
        """Elementwise canonical order: ShapeMismatch first, then, as
        ``Semiring.leq``, UnsupportedInstance on a non-idempotent instance."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("order comparison needs equal shapes")
        return all(map(self.semiring.leq, self.data, other.data))

    def is_symmetric(self):
        if not self.is_square:
            raise ShapeMismatch("symmetry is defined for square matrices")
        return self.equals(self.transpose())

    def is_persymmetric(self):
        """Symmetry about the anti-diagonal: A equals E A^T E entrywise."""
        if not self.is_square:
            raise ShapeMismatch("persymmetry is defined for square matrices")
        n = self.rows
        eq = self.semiring.eq
        d = self.data
        return all(
            eq(d[i * n + j], d[(n - 1 - j) * n + (n - 1 - i)])
            for i in range(n) for j in range(n)
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.semiring.name}, {self.to_rows()!r})"
