"""Skeletal data for a fusion category with chosen duals, plus a fiber
functor's tensor structure, and exact coherence checkers for both.

Coordinate conventions, fixed across the package.  For simples a, b, c
and total d the two parenthesizations of a triple product have bases
    left  (e, mu, nu):     mu < N[a][b][e], nu < N[e][c][d]
    right (f, rho, sigma): rho < N[b][c][f], sigma < N[a][f][d]
with e (resp. f) ascending and the first multiplicity index outer.
F[(a,b,c,d)] expresses each right tree in the left basis:

    R_x = sum_y F[x, y] L_y.

Units are strict: any F block with a unit argument is an identity, and a
fiber functor's J[(unit, a)], J[(a, unit)] equal iota times an identity,
iota being the fiber's chosen unit scalar K -> F(unit).

J[(a, b)] maps F(a) (x) F(b) onto the sum over c of N[a][b][c] copies of
F(c); its row blocks, ordered (c ascending, copy index outer), realize
the skeletal basis morphisms a (x) b -> c under the fiber functor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import NonInvertibleJ, NonRigid, ShapeError
from .matrices import Matrix, block_diag, mat_inverse, permutation_matrix
from .reports import CheckReport
from .scalars import ZERO, sc


def f_left_basis(N, a: int, b: int, c: int, d: int) -> list:
    r = len(N)
    return [
        (e, mu, nu)
        for e in range(r)
        for mu in range(N[a][b][e])
        for nu in range(N[e][c][d])
    ]


def f_right_basis(N, a: int, b: int, c: int, d: int) -> list:
    r = len(N)
    return [
        (f, rho, sigma)
        for f in range(r)
        for rho in range(N[b][c][f])
        for sigma in range(N[a][f][d])
    ]


@dataclass(frozen=True)
class FusionSkeleton:
    rank: int
    fusion: tuple  # N[a][b][c] nonnegative integers
    dual: tuple  # involution with N[a][dual[a]][unit] = 1
    F: dict  # (a,b,c,d) -> Matrix, exactly the keys with positive tree dim
    unit: int = 0
    names: tuple = ()

    def __post_init__(self):
        r = self.rank
        N = tuple(tuple(tuple(int(x) for x in row) for row in plane) for plane in self.fusion)
        object.__setattr__(self, "fusion", N)
        if len(N) != r or any(len(p) != r or any(len(row) != r for row in p) for p in N):
            raise ShapeError(f"fusion tensor is not {r}x{r}x{r}")
        if any(x < 0 for p in N for row in p for x in row):
            raise ShapeError("negative fusion multiplicity")
        if not (0 <= self.unit < r):
            raise ShapeError("unit index out of range")
        u = self.unit
        for a in range(r):
            for b in range(r):
                want = 1 if a == b else 0
                if N[u][a][b] != want or N[a][u][b] != want:
                    raise ShapeError(f"unit is not strict at ({a},{b})")
        dual = tuple(int(x) for x in self.dual)
        object.__setattr__(self, "dual", dual)
        if sorted(dual) != list(range(r)):
            raise ShapeError("dual is not a permutation of the simples")
        for a in range(r):
            if dual[dual[a]] != a:
                raise ShapeError(f"dual is not an involution at {a}")
            if N[a][dual[a]][u] != 1 or N[dual[a]][a][u] != 1:
                raise ShapeError(f"dual candidate fails multiplicity one at {a}")
        names = tuple(self.names) if self.names else tuple(f"X{i}" for i in range(r))
        if len(names) != r:
            raise ShapeError("names length differs from rank")
        object.__setattr__(self, "names", names)

        expect = {}
        for key in product(range(r), repeat=4):
            a, b, c, d = key
            dl = sum(N[a][b][e] * N[e][c][d] for e in range(r))
            dr = sum(N[b][c][f] * N[a][f][d] for f in range(r))
            if dl or dr:
                expect[key] = (dl, dr)
        missing = sorted(set(expect) - set(self.F))
        extra = sorted(set(self.F) - set(expect))
        if missing or extra:
            raise ShapeError(f"F keys mismatch: missing {missing}, extra {extra}")
        for key, (dl, dr) in expect.items():
            if dl != dr:
                raise ShapeError(
                    f"tree spaces at {key} have dims {dl} and {dr}: fusion tensor is not associative"
                )
            m = self.F[key]
            if not isinstance(m, Matrix) or m.rows != dr or m.cols != dl:
                raise ShapeError(f"F block at {key} is not a {dr}x{dl} matrix")
            if u in key[:3] and m != Matrix.identity(dl):
                raise ShapeError(f"F block at {key} must be an identity (strict unit)")

    def n(self, a: int, b: int, c: int) -> int:
        return self.fusion[a][b][c]


@dataclass(frozen=True)
class FiberData:
    """A fiber functor's linear data: dimensions, tensor structure J, the
    unit scalar iota, and coefficient vectors picking evaluation and
    coevaluation morphisms out of the relevant multiplicity spaces.

    ev_coeff[a] has one entry per copy of the unit inside dual(a) (x) a
    (so length N[dual(a)][a][unit]); coev_coeff[a] likewise for copies of
    the unit inside a (x) dual(a).  None defaults every vector to (1,).
    """

    dims: tuple  # dimension of F(a) per simple, all >= 1
    J: dict  # (a,b) -> Matrix, rows sum_c N[a][b][c]*dims[c], cols dims[a]*dims[b]
    iota: object = None  # nonzero Scalar, K -> F(unit); None means 1
    ev_coeff: tuple = None
    coev_coeff: tuple = None

    def __post_init__(self):
        dims = tuple(int(x) for x in self.dims)
        object.__setattr__(self, "dims", dims)
        if any(x < 1 for x in dims):
            raise ShapeError("fiber dimensions must be positive")
        iota = sc(1) if self.iota is None else sc(self.iota)
        if iota.is_zero():
            raise ShapeError("iota must be nonzero")
        object.__setattr__(self, "iota", iota)
        for field in ("ev_coeff", "coev_coeff"):
            raw = getattr(self, field)
            if raw is None:
                raw = ((1,),) * len(dims)
            vecs = tuple(tuple(sc(x) for x in v) for v in raw)
            object.__setattr__(self, field, vecs)


def validate_fiber(skel: FusionSkeleton, fiber: FiberData) -> None:
    """Shape consistency of (dims, J, ev, coev) against the multiplicities."""
    r = skel.rank
    if len(fiber.dims) != r:
        raise ShapeError(f"fiber has {len(fiber.dims)} dimensions for rank {r}")
    if fiber.dims[skel.unit] != 1:
        raise ShapeError("fiber dimension of the unit must be 1")
    pairs = set(product(range(r), repeat=2))
    if set(fiber.J) != pairs:
        raise ShapeError("J must have exactly one block per ordered pair of simples")
    d = fiber.dims
    for (a, b), m in fiber.J.items():
        rows = sum(skel.n(a, b, c) * d[c] for c in range(r))
        cols = d[a] * d[b]
        if not isinstance(m, Matrix) or m.rows != rows or m.cols != cols:
            raise ShapeError(f"J[({a},{b})] is not a {rows}x{cols} matrix")
        if rows != cols:
            raise ShapeError(
                f"J[({a},{b})] is {rows}x{cols}: fiber dimensions are not multiplicative"
            )
    if len(fiber.ev_coeff) != r or len(fiber.coev_coeff) != r:
        raise ShapeError("ev and coev coefficient sequences must have length rank")
    u = skel.unit
    for a in range(r):
        ad = skel.dual[a]
        if len(fiber.ev_coeff[a]) != skel.n(ad, a, u):
            raise ShapeError(f"ev coefficients for simple {a} must have length {skel.n(ad, a, u)}")
        if len(fiber.coev_coeff[a]) != skel.n(a, ad, u):
            raise ShapeError(
                f"coev coefficients for simple {a} must have length {skel.n(a, ad, u)}"
            )


# -- pentagon --------------------------------------------------------------

def verify_pentagon(skel: FusionSkeleton) -> CheckReport:
    """Path independence of the five recoordinatizations of a quadruple
    product, checked for every (a, b, c, d, total).

    Trees, with their basis labels:
      T1 ((ab)c)d : (x, m1, y, m2, m3)   x in ab, y in xc, total in yd
      T2 (ab)(cd) : (x, m1, z, rho, tau) z in cd, total in xz
      T3 (a(bc))d : (v, s, y, t, u)      v in bc, y in av, total in yd
      T4 a((bc)d) : (v, s, w, tp, up)    w in vd, total in aw
      T5 a(b(cd)) : (z, rho, w, nu, sig) w in bz, total in aw
    The two-step path T1->T2->T5 must equal the three-step T1->T3->T4->T5.
    """
    rep = CheckReport("pentagon")
    N = skel.fusion
    r = skel.rank

    for key in sorted(skel.F):
        m = skel.F[key]
        if m.rows and m.rank() != m.rows:
            rep.add("recoordinatization-invertible", key, f"rank {m.rank()}", f"rank {m.rows}")

    for a in range(r):
        for b in range(r):
            for c in range(r):
                # dims of T1 per total, as a plain integer prefilter
                v1 = [sum(N[a][b][x] * N[x][c][y] for x in range(r)) for y in range(r)]
                for dd in range(r):
                    for tot in range(r):
                        if sum(v1[y] * N[y][dd][tot] for y in range(r)) == 0:
                            continue
                        _pentagon_at(skel, rep, a, b, c, dd, tot)
    return rep


def _pentagon_at(skel, rep, a, b, c, d, tot):
    N = skel.fusion
    r = skel.rank
    F = skel.F

    t1 = [
        (x, m1, y, m2, m3)
        for x in range(r)
        for m1 in range(N[a][b][x])
        for y in range(r)
        for m2 in range(N[x][c][y])
        for m3 in range(N[y][d][tot])
    ]
    t2 = [
        (x, m1, z, rho, tau)
        for x in range(r)
        for m1 in range(N[a][b][x])
        for z in range(r)
        for rho in range(N[c][d][z])
        for tau in range(N[x][z][tot])
    ]
    t3 = [
        (v, s, y, t, u)
        for v in range(r)
        for s in range(N[b][c][v])
        for y in range(r)
        for t in range(N[a][v][y])
        for u in range(N[y][d][tot])
    ]
    t4 = [
        (v, s, w, tp, up)
        for v in range(r)
        for s in range(N[b][c][v])
        for w in range(r)
        for tp in range(N[v][d][w])
        for up in range(N[a][w][tot])
    ]
    t5 = [
        (z, rho, w, nu, sig)
        for z in range(r)
        for rho in range(N[c][d][z])
        for w in range(r)
        for nu in range(N[b][z][w])
        for sig in range(N[a][w][tot])
    ]
    dim = len(t1)
    assert len(t2) == len(t3) == len(t4) == len(t5) == dim
    p1 = {lab: i for i, lab in enumerate(t1)}
    p2 = {lab: i for i, lab in enumerate(t2)}
    p3 = {lab: i for i, lab in enumerate(t3)}
    p4 = {lab: i for i, lab in enumerate(t4)}
    p5 = {lab: i for i, lab in enumerate(t5)}

    def placed(outer, key, dst, src):
        """F[key(o)] applied below each outer label (o, m), m < outer[o]:
        its right tree (i, j, k) sits at dst(o, m, i, j, k), its left tree
        at src(o, m, i, j, k)."""
        out = [ZERO] * (dim * dim)
        for o, n_o in enumerate(outer):
            if not n_o:
                continue
            k = key(o)
            fm = F.get(k)
            if fm is None:
                continue
            lb, rb = f_left_basis(N, *k), f_right_basis(N, *k)
            for m in range(n_o):
                for bi, rt in enumerate(rb):
                    row = dst(o, m, *rt) * dim
                    for bj, lt in enumerate(lb):
                        val = fm.at(bi, bj)
                        if val:
                            out[row + src(o, m, *lt)] = val
        return Matrix._of(dim, dim, out)

    # T1 -> T2: reassociate (x c) d for each x, m1
    m_a = placed(
        N[a][b], lambda x: (x, c, d, tot),
        lambda x, m1, z, rho, tau: p2[(x, m1, z, rho, tau)],
        lambda x, m1, y, m2, m3: p1[(x, m1, y, m2, m3)],
    )
    # T2 -> T5: reassociate (a b) z for each z, rho
    m_b = placed(
        N[c][d], lambda z: (a, b, z, tot),
        lambda z, rho, w, nu, sig: p5[(z, rho, w, nu, sig)],
        lambda z, rho, x, m1, tau: p2[(x, m1, z, rho, tau)],
    )
    # T1 -> T3: reassociate (a b) c below each y, m3
    m_c = placed(
        [N[y][d][tot] for y in range(r)], lambda y: (a, b, c, y),
        lambda y, m3, v, s, t: p3[(v, s, y, t, m3)],
        lambda y, m3, x, m1, m2: p1[(x, m1, y, m2, m3)],
    )
    # T3 -> T4: reassociate (a v) d for each v, s
    m_d = placed(
        N[b][c], lambda v: (a, v, d, tot),
        lambda v, s, w, tp, up: p4[(v, s, w, tp, up)],
        lambda v, s, y, t, u: p3[(v, s, y, t, u)],
    )
    # T4 -> T5: reassociate (b c) d below each w, sig
    m_e = placed(
        [N[a][w][tot] for w in range(r)], lambda w: (b, c, d, w),
        lambda w, sig, z, rho, nu: p5[(z, rho, w, nu, sig)],
        lambda w, sig, v, s, tp: p4[(v, s, w, tp, sig)],
    )

    lhs = m_b * m_a
    rhs = m_e * (m_d * m_c)
    if lhs != rhs:
        rep.add("pentagon", (a, b, c, d, tot), lhs, rhs)


# -- fiber functor compatibility -------------------------------------------

def _route_left(skel, fiber, a, b, c):
    N, d, r = skel.fusion, fiber.dims, skel.rank
    step1 = fiber.J[(a, b)].kron(Matrix.identity(d[c]))
    blocks = []
    for e in range(r):
        for _mu in range(N[a][b][e]):
            blocks.append(fiber.J[(e, c)])
    return block_diag(blocks) * step1


def _route_right(skel, fiber, a, b, c):
    N, d, r = skel.fusion, fiber.dims, skel.rank
    step1 = Matrix.identity(d[a]).kron(fiber.J[(b, c)])
    src = [
        (s, f, rho, tp)
        for s in range(d[a])
        for f in range(r)
        for rho in range(N[b][c][f])
        for tp in range(d[f])
    ]
    dst = [
        (s, f, rho, tp)
        for f in range(r)
        for rho in range(N[b][c][f])
        for s in range(d[a])
        for tp in range(d[f])
    ]
    pos = {lab: i for i, lab in enumerate(src)}
    swap = permutation_matrix([pos[lab] for lab in dst])
    blocks = []
    for f in range(r):
        for _rho in range(N[b][c][f]):
            blocks.append(fiber.J[(a, f)])
    return block_diag(blocks) * (swap * step1)


def _regroup(d, r, outer, inner, basis):
    """Permutation from the order of two fusion steps (x, copy mu of x,
    target dd, copy nu of dd, fiber index t) to the tree order of the F
    basis: dd outer, then the trees basis(dd).  outer[x] and inner[x][dd]
    are the numbers of copies in the two steps."""
    src = [
        (x, mu, dd, nu, t)
        for x in range(r)
        for mu in range(outer[x])
        for dd in range(r)
        for nu in range(inner[x][dd])
        for t in range(d[dd])
    ]
    dst = [(x, mu, dd, nu, t) for dd in range(r) for (x, mu, nu) in basis(dd) for t in range(d[dd])]
    pos = {lab: i for i, lab in enumerate(src)}
    return permutation_matrix([pos[lab] for lab in dst])


def _regroup_left(skel, fiber, a, b, c):
    N, r = skel.fusion, skel.rank
    inner = [N[e][c] for e in range(r)]
    return _regroup(fiber.dims, r, N[a][b], inner, lambda dd: f_left_basis(N, a, b, c, dd))


def _regroup_right(skel, fiber, a, b, c):
    N, r = skel.fusion, skel.rank
    return _regroup(fiber.dims, r, N[b][c], N[a], lambda dd: f_right_basis(N, a, b, c, dd))


def verify_tensorator(skel: FusionSkeleton, fiber: FiberData) -> CheckReport:
    """The fiber functor's J against the category's F: for every triple,
    decomposing (ab)c through J and recoordinatizing by F equals
    decomposing a(bc) through J.  Also the strict unit constraints on J.

    Raises NonInvertibleJ when some J block is singular; everything else
    is reported, not raised.
    """
    validate_fiber(skel, fiber)
    rep = CheckReport("tensor-structure")
    r = skel.rank
    d = fiber.dims
    for key in sorted(fiber.J):
        if fiber.J[key].rank() != fiber.J[key].rows:
            raise NonInvertibleJ(f"J[{key}] is singular")

    u = skel.unit
    iota = fiber.iota
    for a in range(r):
        want = iota * Matrix.identity(d[a])
        if fiber.J[(u, a)] != want:
            rep.add("unit-left", (a,), fiber.J[(u, a)], want)
        if fiber.J[(a, u)] != want:
            rep.add("unit-right", (a,), fiber.J[(a, u)], want)

    for a in range(r):
        for b in range(r):
            for c in range(r):
                blocks = []
                for dd in range(r):
                    fm = skel.F.get((a, b, c, dd))
                    if fm is not None:
                        blocks.append(fm.kron(Matrix.identity(d[dd])))
                bd = block_diag(blocks)
                lhs = bd * (_regroup_left(skel, fiber, a, b, c) * _route_left(skel, fiber, a, b, c))
                rhs = _regroup_right(skel, fiber, a, b, c) * _route_right(skel, fiber, a, b, c)
                if lhs != rhs:
                    rep.add("compatibility", (a, b, c), lhs, rhs)
    return rep


# -- duality ----------------------------------------------------------------

def _unit_row_offset(skel, fiber, a, b):
    """Row index of the (unit, copy 0) block inside J[(a, b)]."""
    off = 0
    for c in range(skel.unit):
        off += skel.n(a, b, c) * fiber.dims[c]
    return off


def pairing_matrix(skel: FusionSkeleton, fiber: FiberData, a: int) -> Matrix:
    """P with P[i][j] = p(f_i (x) e_j), the pairing F(a*) (x) F(a) -> K
    realized by the selected evaluation morphism through J[(a*, a)].

    The unit block of J[(a*, a)] has one row per copy of the unit (the
    unit's fiber is a line); ev_coeff[a] combines those rows."""
    ad = skel.dual[a]
    d = fiber.dims
    j = fiber.J[(ad, a)]
    off = _unit_row_offset(skel, fiber, ad, a)
    inv_iota = sc(1) / fiber.iota
    coeffs = fiber.ev_coeff[a]
    rows = [
        [
            inv_iota
            * sum(
                (coeffs[mu] * j.at(off + mu, i * d[a] + jj) for mu in range(len(coeffs))),
                sc(0),
            )
            for jj in range(d[a])
        ]
        for i in range(d[ad])
    ]
    return Matrix.from_rows(rows)


def copairing_matrix(skel: FusionSkeleton, fiber: FiberData, a: int) -> Matrix:
    """Q with q = sum_{i,j} Q[i][j] e_i (x) f_j, the copairing
    K -> F(a) (x) F(a*): coev_coeff[a] picks a vector supported on the
    unit block, carried back to F(a) (x) F(a*) by the inverse of J."""
    ad = skel.dual[a]
    d = fiber.dims
    try:
        jinv = mat_inverse(fiber.J[(a, ad)])
    except ValueError:
        raise NonInvertibleJ(f"J[({a},{ad})] is singular") from None
    off = _unit_row_offset(skel, fiber, a, ad)
    coeffs = fiber.coev_coeff[a]
    rows = [
        [
            fiber.iota
            * sum(
                (coeffs[mu] * jinv.at(i * d[ad] + jj, off + mu) for mu in range(len(coeffs))),
                sc(0),
            )
            for jj in range(d[ad])
        ]
        for i in range(d[a])
    ]
    return Matrix.from_rows(rows)


def verify_duality(skel: FusionSkeleton, fiber: FiberData) -> CheckReport:
    """Both zigzag identities for every simple, as matrix equations on the
    pairing and copairing."""
    validate_fiber(skel, fiber)
    rep = CheckReport("duality")
    for a in range(skel.rank):
        p = pairing_matrix(skel, fiber, a)
        q = copairing_matrix(skel, fiber, a)
        qp = q * p
        pq = p * q
        if qp != Matrix.identity(fiber.dims[a]):
            rep.add("zigzag-qp", (a,), qp, Matrix.identity(fiber.dims[a]))
        if pq != Matrix.identity(fiber.dims[skel.dual[a]]):
            rep.add("zigzag-pq", (a,), pq, Matrix.identity(fiber.dims[skel.dual[a]]))
    return rep


def compute_delta(skel: FusionSkeleton, fiber: FiberData) -> dict:
    """Transpose pairings delta_a = P_a^T used to conjugate between a
    block and its dual's block.  Raises NonRigid when some pairing is
    singular, since then no antipode can be formed."""
    validate_fiber(skel, fiber)
    out = {}
    for a in range(skel.rank):
        p = pairing_matrix(skel, fiber, a)
        if not p.is_square() or p.rank() != p.rows:
            raise NonRigid(f"pairing for simple {a} is singular")
        out[a] = p.transpose()
    return out


def verify_category(skel: FusionSkeleton, fiber: FiberData | None = None) -> list:
    """The full coherence suite: pentagon, then with a fiber the tensor
    structure compatibility and the duality zigzags."""
    reports = [verify_pentagon(skel)]
    if fiber is not None:
        reports.append(verify_tensorator(skel, fiber))
        reports.append(verify_duality(skel, fiber))
    return reports
