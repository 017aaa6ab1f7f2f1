"""Exact dense matrices over the cyclotomic scalars.

Entries are stored row-major and promoted to one common conductor at
construction.  Kernel, solve and inverse each run one reduced row echelon
elimination over the field, so answers are canonical: the kernel basis is
the unique reduced echelon basis of the kernel space (pivot entries 1,
pivot positions increasing left to right), read off one rref of the
matrix with its columns reversed; underdetermined solves set the free
variables to zero; an inverse is one solve against the identity, and a
singular matrix shows as an inconsistent solve.  mat_inverse keeps each
inverse on its matrix, and the matrix (as a copy sharing its entries) on
the inverse, so neither is eliminated twice.

Rational kernel.  A matrix records the conductor its entries meet at.
When both factors of a product have conductor 1 and the inner dimension
is above 1, each factor is lowered once to D, the lcm of its
denominators, and per row the (column, D*x) pairs of its nonzero entries
x; the lowering is cached on the instance.  Output rows are summed in
plain ints and each distinct value becomes one Scalar, as x / (Da*Db).  The
product hands its result that lowering too, reduced by the gcd g of Da*Db
and every sum, so the result's D is again the lcm of its denominators.  Kron
on conductor 1 multiplies the Fractions directly, and elimination (rref,
rank, det, and so mat_kernel and mat_solve) runs on rows of bare
Fractions, wrapped back into Scalars only in its results.  Any other
conductor, and a product whose entries are single products, keeps the
Scalar loops.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ShapeError
from .scalars import ONE, ZERO, Scalar, _rat, sc


class Matrix:
    """Immutable exact matrix.  `entries` is a flat row-major tuple."""

    __slots__ = ("rows", "cols", "entries", "_n", "_low", "_inv")

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
        n = lcm(*conductors)
        if len(conductors) > 1:
            entries = [e.promote(n) for e in entries]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "_n", n)

    @classmethod
    def _from_low(cls, rows: int, cols: int, d: int, low: list) -> "Matrix":
        """The conductor-1 matrix with x / d at (i, j) for each (j, x) in
        low[i], holding that lowering as its own once d and every x are
        divided by their gcd, so that d is the lcm of its denominators."""
        if d != 1 and (g := gcd(d, *(x for row in low for _, x in row))) != 1:
            d //= g
            low = [[(j, x // g) for j, x in row] for row in low]
        out = [ZERO] * (rows * cols)
        made: dict = {}  # x -> its Scalar, so equal entries share one
        for i, row in enumerate(low):
            for j, x in row:
                if (e := made.get(x)) is None:
                    e = made[x] = _rat(Fraction(x, d) if d != 1 else Fraction(x))
                out[i * cols + j] = e
        m = cls._of(rows, cols, out)
        object.__setattr__(m, "_low", (d, low))
        return m

    def _lowered(self):
        """(D, rows of (column, D*x) for each nonzero x); conductor 1 only."""
        if not hasattr(self, "_low"):
            nz = [[(j, e) for j, e in enumerate(self.row(i)) if e] for i in range(self.rows)]
            d, low = lowering([e for row in nz for _, e in row])
            object.__setattr__(self, "_low", (d, [[(j, low(e)) for j, e in row] for row in nz]))
        return self._low

    def _work_rows(self) -> list:
        """Mutable rows for elimination: bare Fractions on conductor 1."""
        if self._n == 1:
            return [[e.coeffs[0] for e in self.row(i)] for i in range(self.rows)]
        return [list(self.row(i)) for i in range(self.rows)]

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
        return not any(self.entries)

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
            if self._n == 1 == other._n and self.cols > 1:
                da, left = self._lowered()
                db, right = other._lowered()
                low = []
                for lrow in left:
                    acc = [0] * other.cols
                    for k, a in lrow:
                        for j, b in right[k]:
                            acc[j] += a * b
                    low.append([(j, x) for j, x in enumerate(acc) if x])
                return Matrix._from_low(self.rows, other.cols, da * db, low)
            for i in range(self.rows):
                ri = self.row(i)
                for j in range(other.cols):
                    acc = ZERO
                    for k in range(self.cols):
                        a = ri[k]
                        if a:
                            b = other.entries[k * other.cols + j]
                            if b:
                                acc = acc + a * b
                    out.append(acc)
            return Matrix._of(self.rows, other.cols, out)
        s = sc(other)
        return Matrix._of(self.rows, self.cols, [s * a for a in self.entries])

    __rmul__ = __mul__  # only ever called with a scalar on the left

    def transpose(self) -> "Matrix":
        return Matrix._of(self.cols, self.rows, [self.at(j, i) for i in range(self.cols) for j in range(self.rows)])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major: (A kron B)[(i,k),(j,l)] = A[i,j] B[k,l]."""
        rat = self._n == 1 == other._n
        bfr = other._work_rows() if rat else None
        out = []
        for i in range(self.rows):
            arow = self.row(i)
            for k in range(other.rows):
                brow = other.row(k)
                for a in arow:
                    if not a:
                        out.extend([ZERO] * other.cols)
                    elif not rat:
                        out.extend(a * b for b in brow)
                    elif (f := a.coeffs[0]) == 1:
                        out.extend(brow)
                    else:
                        out.extend(_rat(f * b) if b else ZERO for b in bfr[k])
        return Matrix._of(self.rows * other.rows, self.cols * other.cols, out)

    # -- elimination -----------------------------------------------------

    def _echelon(self):
        """Reduced row echelon form as mutable `_work_rows`, plus pivot columns."""
        m = self._work_rows()
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = _inv(m[r][c])
            prow = m[r] = [inv * x if x else x for x in m[r]]
            for i in range(self.rows):
                f = m[i][c]
                if i != r and f:
                    m[i] = [x - f * y if y else x for x, y in zip(m[i], prow)]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rref(self) -> tuple["Matrix", list[int]]:
        m, pivots = self._echelon()
        flat = [x for r in m for x in r]
        if self._n == 1:
            flat = [_rat(x) if x else ZERO for x in flat]
        return Matrix._of(len(m), self.cols, flat), pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def det(self) -> Scalar:
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        m = self._work_rows()
        det = 1
        for c in range(n):
            pr = next((i for i in range(c, n) if m[i][c]), None)
            if pr is None:
                return ZERO
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = -det
            det = det * m[c][c]
            inv = _inv(m[c][c])
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [x - f * y if y else x for x, y in zip(m[i], m[c])]
        return sc(det)

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


def lowering(entries) -> tuple:
    """The one lowering of conductor-1 Scalars that the exact kernels share:
    (D, low) with D the lcm of their denominators and low(x) the int D*x
    for any x among them."""
    d = lcm(*{x.coeffs[0].denominator for x in entries})

    def low(x):
        f = x.coeffs[0]
        return f.numerator * (d // f.denominator)

    return d, low


def _inv(x):
    return x.inverse() if type(x) is Scalar else 1 / x


def mat_kernel(m: Matrix) -> Matrix:
    """Canonical basis of the right kernel, as columns.

    The columns form the unique reduced echelon basis of the kernel space:
    leading entries 1, leading positions strictly increasing, and each
    leading position zeroed out in every other basis vector.

    One rref of m with its columns reversed gives that basis directly.  In
    reversed coordinates the vector of a free column f is 1 at f, 0 at the
    other free columns, and minus the reduced column f at the pivots, which
    is nonzero only at pivots before f; reversed back, it leads at its free
    column, where every other vector is 0.
    """
    c = m.cols
    rev, pivots = Matrix._of(m.rows, c, [x for i in range(m.rows) for x in m.row(i)[::-1]])._echelon()
    pivot_set = set(pivots)
    free = [f for f in range(c - 1, -1, -1) if f not in pivot_set]  # leading positions ascending
    neg = (lambda x: _rat(-x) if x else ZERO) if m._n == 1 else (lambda x: -x)
    k = len(free)
    out = [ZERO] * (c * k)
    for j, f in enumerate(free):
        out[(c - 1 - f) * k + j] = ONE
        for r, p in enumerate(pivots):
            out[(c - 1 - p) * k + j] = neg(rev[r][f])
    return Matrix._of(c, k, out)


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
    return Matrix._of(a.cols, b.cols, [x for r in out for x in r])


def mat_inverse(m: Matrix) -> Matrix:
    """The inverse, eliminated once (see the module docstring)."""
    if hasattr(m, "_inv"):
        return m._inv
    if not m.is_square():
        raise ShapeError("inverse of a non-square matrix")
    inv = mat_solve(m, Matrix.identity(m.rows))
    if inv is None:
        raise ValueError("matrix is singular")
    _with_inverse(m, inv)
    return inv


def _with_inverse(m: Matrix, inv: Matrix) -> Matrix:
    """m, now keeping inv as its inverse, and inv keeping a copy of m that
    shares its entries (m itself would make a reference cycle)."""
    object.__setattr__(m, "_inv", inv)
    object.__setattr__(inv, "_inv", Matrix._of(m.rows, m.cols, m.entries))
    return m


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
    return Matrix._of(rows, cols, [x for r in out for x in r])


def permutation_matrix(source_of: list[int]) -> Matrix:
    """P with (P v)[i] = v[source_of[i]]."""
    n = len(source_of)
    return Matrix._of(n, n, [ONE if j == source_of[i] else ZERO for i in range(n) for j in range(n)])
