"""Exact dense matrices over the cyclotomic scalars.

Entries are stored row-major and promoted to one common conductor at
construction.  Kernel and solve run reduced row echelon elimination over
the field, so answers are canonical: the kernel basis is the unique
reduced echelon basis of the kernel space (pivot entries 1, pivot
positions increasing left to right), and underdetermined solves set the
free variables to zero.
"""

from __future__ import annotations

from math import lcm

from .errors import ShapeError
from .scalars import ONE, ZERO, Scalar, sc


class Matrix:
    """Immutable exact matrix.  `entries` is a flat row-major tuple."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [sc(x) for x in entries]
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self._fill(rows, cols, entries)

    @classmethod
    def _of(cls, rows: int, cols: int, entries) -> "Matrix":
        """Internal results: `entries` are rows * cols Scalars, so they skip
        coercion and the shape check but still meet at one conductor."""
        m = object.__new__(cls)
        m._fill(rows, cols, entries)
        return m

    def _fill(self, rows: int, cols: int, entries) -> None:
        conductors = {e.conductor for e in entries}
        if len(conductors) > 1:
            n = lcm(*conductors)
            entries = [e.promote(n) for e in entries]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ShapeError("ragged rows")
        return cls(nr, nc, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def column(cls, xs) -> "Matrix":
        xs = list(xs)
        return cls(len(xs), 1, xs)

    # -- access ----------------------------------------------------------

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._of(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._of(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.rows, self.cols, [-a for a in self.entries])

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            out = []
            for i in range(self.rows):
                ri = self.row(i)
                for j in range(other.cols):
                    acc = ZERO
                    for k in range(self.cols):
                        a = ri[k]
                        if not a.is_zero():
                            b = other.entries[k * other.cols + j]
                            if not b.is_zero():
                                acc = acc + a * b
                    out.append(acc)
            return Matrix._of(self.rows, other.cols, out)
        s = sc(other)
        return Matrix._of(self.rows, self.cols, [s * a for a in self.entries])

    def __rmul__(self, other):
        s = sc(other)
        return Matrix._of(self.rows, self.cols, [s * a for a in self.entries])

    def transpose(self) -> "Matrix":
        return Matrix._of(self.cols, self.rows, [self.at(j, i) for i in range(self.cols) for j in range(self.rows)])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major: (A kron B)[(i,k),(j,l)] = A[i,j] B[k,l]."""
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                for j in range(self.cols):
                    a = self.at(i, j)
                    if a.is_zero():
                        out.extend([ZERO] * other.cols)
                    else:
                        out.extend(a * other.at(k, l) for l in range(other.cols))
        return Matrix._of(self.rows * other.rows, self.cols * other.cols, out)

    # -- elimination -----------------------------------------------------

    def _echelon(self):
        """Reduced row echelon form as mutable rows, plus pivot columns."""
        m = [list(self.row(i)) for i in range(self.rows)]
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if not m[i][c].is_zero():
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = m[r][c].inverse()
            m[r] = [inv * x for x in m[r]]
            for i in range(self.rows):
                if i != r and not m[i][c].is_zero():
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rref(self) -> tuple["Matrix", list[int]]:
        m, pivots = self._echelon()
        return Matrix._of(len(m), self.cols, [x for r in m for x in r]), pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def det(self) -> Scalar:
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        m = [list(self.row(i)) for i in range(n)]
        det = ONE
        for c in range(n):
            pr = None
            for i in range(c, n):
                if not m[i][c].is_zero():
                    pr = i
                    break
            if pr is None:
                return ZERO
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = -det
            det = det * m[c][c]
            inv = m[c][c].inverse()
            for i in range(c + 1, n):
                if not m[i][c].is_zero():
                    f = m[i][c] * inv
                    m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        return det

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(a == b for a, b in zip(self.entries, other.entries))

    __hash__ = None

    def __str__(self):
        if self.rows == 0 or self.cols == 0:
            return f"<{self.rows}x{self.cols}>"
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} {self})"


def mat_kernel(m: Matrix) -> Matrix:
    """Canonical basis of the right kernel, as columns.

    The columns form the unique reduced echelon basis of the kernel space:
    leading entries 1, leading positions strictly increasing, and each
    leading position zeroed out in every other basis vector.
    """
    red, pivots = m.rref()
    free = [c for c in range(m.cols) if c not in pivots]
    if not free:
        return Matrix.zeros(m.cols, 0)
    # one vector per free column: 1 there, minus the reduced column above pivots
    raw = []
    for fc in free:
        v = [ZERO] * m.cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red.at(r, fc)
        raw.append(v)
    canon, _ = Matrix._of(len(raw), m.cols, [x for v in raw for x in v]).rref()
    vecs = [list(canon.row(i)) for i in range(canon.rows) if not all(x.is_zero() for x in canon.row(i))]
    return Matrix.from_rows(vecs).transpose() if vecs else Matrix.zeros(m.cols, 0)


def mat_solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve A X = B exactly.

    Returns the unique solution when A has full column rank, the solution
    with all free variables zero otherwise, and None when the system is
    inconsistent.  None is a value, not an error: inconsistency is an
    ordinary answer.
    """
    if a.rows != b.rows:
        raise ShapeError(f"A has {a.rows} rows but B has {b.rows}")
    aug = Matrix._of(a.rows, a.cols + b.cols, [x for i in range(a.rows) for x in (*a.row(i), *b.row(i))])
    red, pivots = aug.rref()
    if any(p >= a.cols for p in pivots):
        return None
    out = [[ZERO] * b.cols for _ in range(a.cols)]
    for r, pc in enumerate(pivots):
        for j in range(b.cols):
            out[pc][j] = red.at(r, a.cols + j)
    return Matrix.from_rows(out) if a.cols else Matrix.zeros(0, b.cols)


def mat_inverse(m: Matrix) -> Matrix:
    if not m.is_square():
        raise ShapeError("inverse of a non-square matrix")
    if m.rank() != m.rows:
        raise ValueError("matrix is singular")
    inv = mat_solve(m, Matrix.identity(m.rows))
    assert inv is not None
    return inv


def block_diag(blocks: list[Matrix]) -> Matrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[ZERO] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r0 + i][c0 + j] = b.at(i, j)
        r0 += b.rows
        c0 += b.cols
    return Matrix.from_rows(out) if rows else Matrix.zeros(0, cols)


def permutation_matrix(source_of: list[int]) -> Matrix:
    """P with (P v)[i] = v[source_of[i]]."""
    n = len(source_of)
    return Matrix(n, n, [ONE if j == source_of[i] else ZERO for i in range(n) for j in range(n)])
