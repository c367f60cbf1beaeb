"""Dense matrices over a semiring.

Storage is a flat row-major list; matrices are treated as immutable values
and every operation returns a fresh matrix.  Column vectors are n-by-1
matrices, there is no separate vector type.  The compact symmetric Toeplitz
form is ``toeplitz.SymToeplitz``; it builds a Matrix only in ``expand``.
The dense type holds only what the bordering, series and expansion paths
and the benchmark call.  ``mul`` sums each entry through the instance's
``dot``, the kernel the solvers run.
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

    @classmethod
    def identity(cls, n, semiring):
        data = [semiring.zero] * (n * n)
        for i in range(n):
            data[i * n + i] = semiring.one
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

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def to_rows(self):
        d, c = self.data, self.cols
        return [d[i * c:(i + 1) * c] for i in range(self.rows)]

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
        dot = sr.dot
        b, m = other.data, other.cols
        columns = [b[j::m] for j in range(m)]
        out = [dot(row, col) for row in self.to_rows() for col in columns]
        return Matrix(self.rows, m, out, sr)

    def equals(self, other):
        """Entrywise equality under the instance's eq (tolerance-aware for
        floating-point carriers); InstanceMismatch first, False on shapes."""
        self._check_same_instance(other)
        if self.rows != other.rows or self.cols != other.cols:
            return False
        eq = self.semiring.eq
        a, b = self.data, other.data
        return all(eq(a[i], b[i]) for i in range(len(a)))

    def leq(self, other):
        """Elementwise canonical order: InstanceMismatch, ShapeMismatch, then,
        as ``Semiring.leq``, UnsupportedInstance on a non-idempotent instance."""
        self._check_same_instance(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("order comparison needs equal shapes")
        return all(map(self.semiring.leq, self.data, other.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.semiring.name}, {self.to_rows()!r})"
