"""Exact dense matrices over the cyclotomic scalars.

Entries are stored row-major and promoted to one common conductor at
construction.  Answers are canonical: the kernel basis is the unique
reduced echelon basis of the kernel space (pivot entries 1, pivot
positions increasing left to right), the rref of any spanning set of it,
cut by `_joint_kernel`; a solve or an inverse runs one reduced row
echelon elimination over the field, and underdetermined solves set the
free variables to zero.  Every solve is one right solve X A = B (`mat_rsolve`):
A X = B is that of the transposes, and an inverse that against the
identity, where a singular matrix shows as an inconsistent solve.
mat_inverse keeps each inverse on its matrix, and the matrix (as a copy
sharing its entries) on the inverse, so neither is eliminated twice.

Lowered kernel.  A matrix is lowered once, cached on the instance, to D
and per row the (column, low(x)) pairs of its nonzero entries x
(`Matrix._lowered`): on conductor 1, by `scalars.packing`, D is the lcm
of the denominators and low(x) the int D*x; on any other, D = 1 and
low(x) = x; a transpose holds none.  A product sums
each output row over both lowerings and hands its result the sums
(`Matrix._from_low`), reduced so that D is again the lcm of the result's
denominators, or its Scalars at D = 1.  A cell whose terms cancel stays a
zero Scalar at their conductor; a cell with no terms is ZERO.  Every
identity A * B == C that a checker tests is decided by `_is_product`,
the same sums compared with the rows of C's lowering, so no product is
built unless a failing side is rendered.  Kron multiplies the nonzero
pairs of both lowerings into its rows, and `_kron_sum` sums the krons of
a tensor action of `repcat` on theirs, once per action; both hand their
rows over as a product does, and an identity is built holding its own.
`repcat.hom_space` builds no matrix until its answer (two 1-dim modules
compare their actions entrywise and build nothing): each intertwiner
constraint is rows on the actions' lowerings, scaled to their lcm D
(`_intertwiner_constraint`), and `_joint_kernel` cuts an integer
spanning set of the kernel by each in turn, eliminating fraction-free
with `_eliminate` and making each kernel vector primitive by its gcd,
never dividing; the rref of the last spanning set is canonical, and only
it becomes Scalars, through `_reduced`.  Above conductor 1 the same code
runs on the Scalars of the lowering.  Outside this module only
`fusion.tree_maps` reads lowerings: it realizes the trees of a triple
off the rows of the J blocks and hands each flat matrix its lowering
through `_reduced`.  Elimination (`_eliminate`) on conductor 1 is
fraction-free on the int rows D*x of the lowering; rank reads the pivots,
and rref, `_joint_kernel` and mat_rsolve divide only the cells they read
by their row's pivot and hand their results that lowering; mat_kernel is
`_joint_kernel` on the rows of its matrix's lowering, and mat_rsolve
builds its transposed system off its operands' lowerings.  Other
conductors, and det, eliminate by the Scalar Gauss-Jordan, whose
products run on int residues and which inverts each pivot by its Galois
norm.  The rank of a single row or column needs no elimination at any
conductor: it is read off whether any entry is nonzero.

Split-prime certificate.  Off conductor 1 a rank first ranks the image
of the matrix in F_p, (p, r) = `scalars.split_prime(n)`: an entry x =
sum c_i zeta^i goes to x(r) = sum c_i r^i mod p, each c_i as num *
den^-1 mod p.  When that rank is min(rows, cols), it is the rank; when
it is less, or p divides a denominator, the Scalar Gauss-Jordan
decides.  Proof: r is a root of Phi_n mod p, so with D the lcm of the
denominators and p not dividing D, x -> x(r) is a ring map
Z[zeta_n][1/D] -> F_p.  It sends each minor of m to the same minor of
the image, so a minor that is nonzero mod p is nonzero: rank m is at
least the modular rank, and at most min(rows, cols), so a full modular
rank is the rank.  p depends on n alone and is found once per
conductor; no answer changes, only the route to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ShapeError
from .scalars import ONE, ZERO, Scalar, _rat, is_one, packing, phi_degree, sc, split_prime


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
        """The matrix with x / d at (i, j) for each (j, x) in low[i], else
        ZERO; x is a nonzero int, or a Scalar placed even when zero, so a
        cancelled cell keeps its conductor.  The result holds its lowering:
        on conductor 1 (all ints) low, with d and every x divided by their
        gcd; above it, its nonzero entries at D = 1."""
        out = [ZERO] * (rows * cols)
        made: dict = {}  # int x -> its Scalar, so equal entries share one
        for i, row in enumerate(low):
            for j, x in row:
                if type(x) is not int:
                    e = x if d == 1 else x / d
                elif (e := made.get(x)) is None:
                    e = made[x] = _rat(Fraction(x, d) if d != 1 else Fraction(x))
                out[i * cols + j] = e
        m = cls._of(rows, cols, out)
        if m._n != 1:
            d, placed = 1, m.entries
            low = [[(j, y) for j, _ in row if (y := placed[i * cols + j])] for i, row in enumerate(low)]
        elif d != 1 and (g := gcd(d, *(x for row in low for _, x in row))) != 1:
            d //= g
            low = [[(j, x // g) for j, x in row] for row in low]
        object.__setattr__(m, "_low", (d, low))
        return m

    def _lowered(self):
        """(D, rows of (column, low(x)) for each nonzero x), made once (see the module docstring)."""
        if not hasattr(self, "_low"):
            nz = [[(j, e) for j, e in enumerate(self.row(i)) if e] for i in range(self.rows)]
            d = 1
            if self._n == 1:
                d, _, low, _ = packing([e for row in nz for _, e in row], ())
                nz = [[(j, low(e)) for j, e in row] for row in nz]
            object.__setattr__(self, "_low", (d, nz))
        return self._low

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
        """I_n, holding its lowering: D = 1 and a 1 on each row."""
        return cls._from_low(n, n, 1, [[(i, 1)] for i in range(n)])

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
            da, left = self._lowered()
            db, right = other._lowered()
            low = []
            for lrow in left:
                acc = [0] * other.cols
                for k, a in lrow:
                    for j, b in right[k]:
                        acc[j] += a * b
                low.append([(j, x) for j, x in enumerate(acc) if x or type(x) is not int])
            return Matrix._from_low(self.rows, other.cols, da * db, low)
        s = sc(other)
        return Matrix._of(self.rows, self.cols, [s * a for a in self.entries])

    __rmul__ = __mul__  # only ever called with a scalar on the left

    def transpose(self) -> "Matrix":
        return Matrix._of(self.cols, self.rows, [self.at(j, i) for i in range(self.cols) for j in range(self.rows)])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major: (A kron B)[(i,k),(j,l)] = A[i,j] B[k,l].

        A cell is ZERO where A[i,j] is zero and the Scalar product
        otherwise, so the result has conductor 1 when A is zero and
        lcm(A._n, B._n) otherwise, also when B is zero.  The nonzero pairs
        of both lowerings are multiplied into rows and handed to
        `Matrix._from_low`, as a product's are.  Only shape picks another
        path: a 1x1 factor makes a scalar multiple, and the rational 1 the
        other factor itself."""
        rows, cols = self.rows * other.rows, self.cols * other.cols
        if self.is_zero():
            return Matrix.zeros(rows, cols)
        if other.is_zero():
            return Matrix._of(rows, cols, [ZERO.promote(lcm(self._n, other._n))] * (rows * cols))
        if self.rows == self.cols == 1 or other.rows == other.cols == 1:
            s, m = (self.entries[0], other) if self.rows == self.cols == 1 else (other.entries[0], self)
            return m if s.conductor == 1 and s.coeffs[0] == 1 else m * s
        da, left = self._lowered()
        db, right = other._lowered()
        c = other.cols
        low = [[(j * c + l, a * b) for j, a in arow for l, b in brow] for arow in left for brow in right]
        return Matrix._from_low(rows, cols, da * db, low)

    # -- elimination -----------------------------------------------------

    def _echelon(self) -> tuple[list, list, list]:
        """`_eliminate` on mutable rows of this matrix: on conductor 1 the
        ints D*x of `_lowered`, above it the entries, whose zero Scalars
        keep a result at the matrix's conductor."""
        if self._n != 1:
            return _eliminate(self.to_rows(), self.cols, False)
        return _eliminate([_combine(pairs, self.cols, None) for pairs in self._lowered()[1]], self.cols, True)

    def rref(self) -> tuple["Matrix", list[int]]:
        m, pivots, ps = self._echelon()
        ps += [1] * (len(m) - len(pivots))
        return _reduced(self.cols, [(p, enumerate(row)) for p, row in zip(ps, m)]), pivots

    def rank(self) -> int:
        if self.rows == 1 or self.cols == 1:
            return int(any(self.entries))
        if self._n != 1 and _full_rank_mod_p(self):
            return min(self.rows, self.cols)
        return len(self._echelon()[1])

    def det(self) -> Scalar:
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        m, det = self.to_rows(), ONE
        for c in range(n):
            pr = next((i for i in range(c, n) if m[i][c]), None)
            if pr is None:
                return ZERO
            m[c], m[pr] = m[pr], m[c]
            det = (det if pr == c else -det) * m[c][c]
            inv = m[c][c].inverse()
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [x - f * y if y else x for x, y in zip(m[i], m[c])]
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


def _is_product(a: Matrix, b: Matrix, c: Matrix) -> bool:
    """a * b == c, decided on the three lowerings, building no matrix: with
    a, b and c standing for their pairs over Da, Db and Dc, each row of
    Dc (a b) equals Da Db times that row of c.  An inner mismatch raises
    ShapeError, as the product does, and a c of another shape is unequal."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if c.rows != a.rows or c.cols != b.cols:
        return False
    (da, left), (db, right), (dc, want) = a._lowered(), b._lowered(), c._lowered()
    s = da * db
    for lrow, wrow in zip(left, want):
        acc: dict = {}
        for k, x in lrow:
            for j, y in right[k]:
                acc[j] = acc.get(j, 0) + x * y
        got = {j: x if dc == 1 else dc * x for j, x in acc.items() if x}
        if got != {j: x if s == 1 else s * x for j, x in wrow}:
            return False
    return True


def _eliminate(m: list, cols: int, ints: bool) -> tuple[list, list, list]:
    """Gauss-Jordan elimination, in place, of the mutable rows m, with cols
    columns, of ints (conductor 1) or else of Scalars at one conductor;
    returns (m, pivots, ps): pivot column c of row r at pivots[r], and row
    r of the rref is m[r] / ps[r], an int.  Int rows stay fraction-free: at
    a pivot p = m[r][c] each other row with f = row[c] != 0 becomes (p/g)
    row - (f/g) m[r], g = gcd(p, f), divided by the gcd of its entries;
    ps[r] is m[r][c] at the end.  Scalar rows scale each pivot to 1, and
    ps[r] = 1."""
    pivots: list = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        if ints:
            p = prow[c]
            for i, row in enumerate(m):
                if i != r and (f := row[c]):
                    g = gcd(p, f)
                    a, b = p // g, f // g
                    row = [a * x - b * y for x, y in zip(row, prow)]
                    m[i] = [x // h for x in row] if (h := gcd(*row)) > 1 else row
        else:
            inv = prow[c].inverse()
            prow = m[r] = [inv * x if x else x for x in prow]
            for i, row in enumerate(m):
                if i != r and (f := row[c]):
                    m[i] = [x - f * y if y else x for x, y in zip(row, prow)]
        pivots.append(c)
    return m, pivots, [row[c] for row, c in zip(m, pivots)] if ints else [1] * len(pivots)


def _reduced(cols: int, out: list) -> Matrix:
    """The matrix with x / p at (i, j) for each (j, x) in r, out[i] = (p, r)
    with p an int, read off `_eliminate` rows or `fusion._trees`, handed to
    `Matrix._from_low` at D the lcm of the p, so D > 0 also when some p is
    negative; an int x that is 0 places no cell."""
    d = lcm(*(p for p, _ in out))
    low = [[(j, x if p == d else x * (d // p)) for j, x in r if x or type(x) is not int] for p, r in out]
    return Matrix._from_low(len(out), cols, d, low)


def _full_rank_mod_p(m: Matrix) -> bool:
    """The image of m in F_p has rank min(rows, cols), p = split_prime(n);
    False also when p divides a denominator (see the module docstring).
    The min(rows, cols) rows or columns of the image are reduced in turn
    against the pivots of those before them, and one that reduces to zero
    is a dependence."""
    n = m._n
    p, r = split_prime(n)
    dens = {q.denominator for x in m.entries for q in x.coeffs}
    if any(d % p == 0 for d in dens):
        return False
    inv = {d: pow(d, -1, p) for d in dens}
    powers = [pow(r, i, p) for i in range(phi_degree(n))]

    def image(x) -> int:  # x(r)
        return sum(q.numerator * inv[q.denominator] * w for q, w in zip(x.coeffs, powers) if q) % p

    img = [image(x) if x else 0 for x in m.entries]
    c = m.cols
    vecs = [img[i * c : (i + 1) * c] for i in range(m.rows)] if m.rows <= c else [img[j::c] for j in range(c)]
    for k, v in enumerate(vecs):
        j = next((j for j, x in enumerate(v) if x), None)
        if j is None:
            return False
        pivot_inv = pow(v[j], -1, p)
        for i in range(k + 1, len(vecs)):
            if f := vecs[i][j] * pivot_inv % p:
                vecs[i] = [(x - f * y) % p for x, y in zip(vecs[i], v)]
    return True


def _intertwiner_constraint(av: Matrix, aw: Matrix) -> tuple:
    """(D, n, rows): the rows of aw (x) I - I (x) av^T scaled to D, the lcm
    of the actions' D, and n the conductor of that matrix.  Row (i, k)
    lists (column, x): D aw[i, j] at column (j, k) and -D av[l, k] at
    column (i, l), built on the actions' lowerings; an int x is nonzero,
    and a Scalar x is kept when its terms cancel, so `Matrix._from_low`
    of the rows at D is the matrix.  n is the lcm of the conductors of the
    actions that are not zero, as each nonzero entry of one places a
    cell."""
    nv, nw = av.rows, aw.rows
    (dv, rv), (dw, rw) = av._lowered(), aw._lowered()
    d = lcm(dv, dw)
    cv: list = [[] for _ in range(nv)]  # column k of av: (l, D*av[l, k])
    for l, row in enumerate(rv):
        for k, y in row:
            cv[k].append((l, y if d == dv else y * (d // dv)))
    low = []
    for i in range(nw):
        wi = [(j * nv, x if d == dw else x * (d // dw)) for j, x in rw[i]]
        for k in range(nv):
            acc = {o + k: x for o, x in wi}
            for l, y in cv[k]:
                c = i * nv + l
                acc[c] = acc[c] - y if c in acc else -y
            low.append(sorted((c, x) for c, x in acc.items() if x or type(x) is not int))
    return d, lcm(*(m._n for m, rows in ((av, rv), (aw, rw)) if any(rows))), low


def _joint_kernel(constraints, dim: int) -> Matrix:
    """The canonical basis of the joint kernel of the (D, n, rows) in
    constraints, as from `_intertwiner_constraint` or mat_kernel, as the
    rows of a Matrix with dim columns: the rref of any basis of the
    kernel.

    The kernel so far is held as the columns of K, an integer spanning
    set, from the first constraint C that cuts (C K is not zero; K is I
    before it).  The kernel of C K is read off one `_eliminate`: with p_r
    the pivot of row r and s_r = ps[r], the vector of a free column f is
    L at f and -m[r][f] L / s_r at p_r, L the lcm of the s_r.  K times
    these vectors, each made primitive by its gcd, spans the new kernel
    with full column rank; no field division is made.  The rref of K^T is
    canonical, so it is the basis whatever K spans the kernel, and only it
    is handed to `_reduced`.  Above conductor 1 the same code runs on the
    Scalars of the lowering, promoted to the conductor of C K, the lcm of
    those of C and K, with `_eliminate(ints=False)`: its ps are 1, and no
    gcd is taken.  K starts at conductor 1, each cut puts it at the
    conductor of C K, also when the new kernel's entries are rational, and
    the basis is handed over at K's conductor; a constraint that does not
    cut leaves it.  A cut that leaves no column stops before the next
    constraint is built; no cut at all leaves the identity."""
    kn, vecs = 1, None  # K's conductor and columns; None while K = I
    for _, cn, rows in constraints:
        n, width = lcm(cn, kn), dim if vecs is None else len(vecs)
        krows = None if vecs is None else list(zip(*vecs))
        hit = [row for pairs in rows if any(row := _combine(pairs, width, krows))]
        if not hit:
            continue
        if n != 1:
            hit = [[sc(x).promote(n) for x in row] for row in hit]
        m, pivots, ps = _eliminate(hit, width, n == 1)
        cut = []
        for f in sorted(set(range(width)) - set(pivots)):
            col = [(p, row[f], s) for row, p, s in zip(m, pivots, ps) if row[f]]
            top = lcm(*(s for *_, s in col))
            vec = _combine([(f, top)] + [(p, -x if s == top else -x * (top // s)) for p, x, s in col], dim, vecs)
            if n == 1 and (g := gcd(*vec)) > 1:
                vec = [x // g for x in vec]
            cut.append(vec)
        if not cut:
            return Matrix.zeros(0, dim)
        kn, vecs = n, cut
    if vecs is None:
        return Matrix.identity(dim)
    if kn != 1:
        vecs = [[sc(x).promote(kn) for x in row] for row in vecs]
    m, _, ps = _eliminate(vecs, dim, kn == 1)
    return _reduced(dim, [(p, enumerate(row)) for p, row in zip(ps, m)])


def _combine(pairs, width: int, vecs) -> list:
    """The sum of x vecs[c] over the (c, x) of pairs, vectors of length
    width; x e_c when vecs is None, pairs naming each c once."""
    out = [0] * width
    if vecs is None:
        for c, x in pairs:
            out[c] = x
    else:
        for c, x in pairs:
            out = [a + x * b for a, b in zip(out, vecs[c])]
    return out


def _kron_sum(rows: int, cols: int, terms) -> Matrix:
    """The rows x cols sum of c (A kron B) over the (c, A, B) of terms, equal
    in value and conductor to that sum folded from the zero matrix, a c
    equal to 1 taken as the rational 1, as kron takes it.  Each term's
    nonzero pairs are multiplied into rows at D the lcm of the terms' D,
    and handed to `Matrix._from_low` as a product's are; a term that places
    no cell (A or B zero) still lifts the result to its conductor."""
    scaled, n = [], 1
    for c, a, b in terms:
        (da, la), (db, lb) = a._lowered(), b._lowered()
        c = ONE if is_one(c) else c
        dc, f = (c.coeffs[0].denominator, c.coeffs[0].numerator) if c.conductor == 1 else (1, c)
        n = lcm(n, c.conductor, lcm(a._n, b._n) if any(la) else 1)
        scaled.append((da * db * dc, f, la, lb, b.cols))
    d = lcm(*(s for s, *_ in scaled))
    acc = [[0] * cols for _ in range(rows)]
    for s, f, la, lb, bc in scaled:
        f *= d // s
        for i, arow in enumerate(la):
            arow = [(j * bc, f * x) for j, x in arow]
            for k, brow in enumerate(lb, i * len(lb)):
                out = acc[k]
                for o, x in arow:
                    for l, y in brow:
                        out[o + l] += x * y
    low = [[(j, x) for j, x in enumerate(row) if x or type(x) is not int] for row in acc]
    m = Matrix._from_low(rows, cols, d, low)
    return m if m._n == n else Matrix._of(rows, cols, [e.promote(n) for e in m.entries])


def mat_kernel(m: Matrix) -> Matrix:
    """Canonical basis of the right kernel, as columns.

    The columns form the unique reduced echelon basis of the kernel space:
    leading entries 1, leading positions strictly increasing, and each
    leading position zeroed out in every other basis vector.

    It is `_joint_kernel` with the lowered rows of m as its one
    constraint: the rows of that rref, handed over as columns with the
    transposed lowering.
    """
    d, rows = m._lowered()
    k = _joint_kernel([(d, m._n, rows)], m.cols)
    d, low = k._lowered()
    cols: list = [[] for _ in range(m.cols)]
    for i, row in enumerate(low):
        for j, x in row:
            cols[j].append((i, x))
    return Matrix._from_low(m.cols, k.rows, d, cols)


def mat_solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve A X = B exactly: mat_rsolve(A^T, B^T)^T.

    Returns the unique solution when A has full column rank, the solution
    with all free variables zero otherwise, and None when the system is
    inconsistent.  None is a value, not an error: inconsistency is an
    ordinary answer.
    """
    if a.rows != b.rows:
        raise ShapeError(f"A has {a.rows} rows but B has {b.rows}")
    x = mat_rsolve(a.transpose(), b.transpose())
    return None if x is None else x.transpose()


def mat_rsolve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve X A = B exactly, with the answers mat_solve gives on the
    transposes.  The rows of [A^T | B^T] are built straight off the
    lowerings of A and B on conductor 1, and off their entries, promoted to
    the lcm of their conductors, above it; the solution is handed to
    `Matrix._from_low` already transposed, so no transpose is built."""
    if a.cols != b.cols:
        raise ShapeError(f"A has {a.cols} columns but B has {b.cols}")
    k, n = a.rows, lcm(a._n, b._n)
    if n == 1:
        (da, la), (db, lb) = a._lowered(), b._lowered()
        d = lcm(da, db)
        rows = [[0] * (k + b.rows) for _ in range(a.cols)]
        for off, f, low in ((0, d // da, la), (k, d // db, lb)):
            for i, pairs in enumerate(low):
                for j, x in pairs:
                    rows[j][off + i] = x * f
    else:
        rows = [[e.promote(n) for t in (a, b) for e in t.entries[j :: t.cols]] for j in range(a.cols)]
    red, pivots, ps = _eliminate(rows, k + b.rows, n == 1)
    if any(p >= k for p in pivots):
        return None
    d = lcm(*ps)
    low = [[] for _ in range(b.rows)]
    for row, pc, s in zip(red, pivots, ps):
        for y, x in enumerate(row[k:]):
            if x or type(x) is not int:
                low[y].append((pc, x if s == d else x * (d // s)))
    return Matrix._from_low(b.rows, k, d, low)


def mat_inverse(m: Matrix) -> Matrix:
    """The inverse, eliminated once (see the module docstring)."""
    if hasattr(m, "_inv"):
        return m._inv
    if not m.is_square():
        raise ShapeError("inverse of a non-square matrix")
    inv = mat_rsolve(m, Matrix.identity(m.rows))
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
            out[r0 + i][c0 : c0 + b.cols] = b.row(i)
        r0 += b.rows
        c0 += b.cols
    return Matrix._of(rows, cols, [x for r in out for x in r])

