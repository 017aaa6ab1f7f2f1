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

The pentagon check lowers the F blocks once, into the packed-int ring of
`scalars.packing`: an entry x is the int D*x, packed at x -> B above
conductor 1.  A path through k blocks holds D^k times its value, so the
two-step side, scaled by D, meets the three-step side, as
`scalars.same_sides` decides.  A cell of either side sums at most dim^2
products of three factors, dim the largest block's.  The check walks once,
in lexicographic order, over the (a, b, c, d, total) with a tree and no
unit among a, b, c and d: the strict units decide the others, by the
proof in `verify_pentagon`.  The walk is grouped by F key (a, b, c), then
by (d, total), read off the nonzero N.  A failing (a, b, c, d, total) is
rendered from the images that decided it, as T5 x T1 matrices in
lexicographic label order: the ring's `high` reads the two-step side back
at D^2 and the three-step side at D^3, every cell at the ring's
conductor, and each distinct int of a side once per failing tuple.

The tensorator check reads the trees of each triple off the lowered rows
of J (`tree_maps`, which builds no kron, identity or product) and decides
F * left == right by `matrices._is_product`, as the duality check decides
both zigzags against the identity.  Only a failing identity is
multiplied out as Scalar matrices, to render its report.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import product
from types import MappingProxyType

from .errors import NonInvertibleJ, NonRigid, ShapeError
from .matrices import Matrix, _is_product, _reduced, _with_inverse, mat_inverse
from .reports import CheckReport
from .scalars import packing, same_sides, sc


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


def _tree_dims(nz: list, a: int, b: int, c: int) -> dict:
    """d -> (dim of the trees ((a b) c) -> d, dim of (a (b c)) -> d), over
    the d with a tree, ascending; nz[x][y] lists (z, N[x][y][z]) over the
    nonzero multiplicities."""
    left: dict = {}
    right: dict = {}
    for e, x in nz[a][b]:
        for d, y in nz[e][c]:
            left[d] = left.get(d, 0) + x * y
    for f, x in nz[b][c]:
        for d, y in nz[a][f]:
            right[d] = right.get(d, 0) + x * y
    return {d: (left.get(d, 0), right.get(d, 0)) for d in sorted(left.keys() | right.keys())}


@dataclass(frozen=True)
class FusionRules:
    """Skeletal data without F: all that End of a fiber functor reads."""

    rank: int
    fusion: tuple  # N[a][b][c] nonnegative integers
    dual: tuple  # involution with N[a][dual[a]][unit] = 1
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

    def n(self, a: int, b: int, c: int) -> int:
        return self.fusion[a][b][c]


@dataclass(frozen=True)
class FusionSkeleton(FusionRules):
    """FusionRules with the associator F, an identity on the unit.

    F is held read-only, as a mapping proxy over a copy of the mapping
    given: verify_pentagon skips the quintuples with a unit slot by the
    check below that every block with a unit among its first three slots
    is an identity, so no block may change after it.  dict(skel.F) and
    dataclasses.replace build a new, checked skeleton."""

    F: Mapping = field(kw_only=True)  # (a,b,c,d) -> Matrix, exactly the keys with positive tree dim

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "F", MappingProxyType(dict(self.F)))
        r, N, u = self.rank, self.fusion, self.unit
        # in proportion to the payload: trees are walked over the nonzero N,
        # in key order up to the first key with a tree but no block
        nz = [[[(z, x) for z, x in enumerate(row) if x] for row in plane] for plane in N]
        dims = cache(partial(_tree_dims, nz))
        abc = list(product(range(r), repeat=3))
        missing = next(((*t, d) for t in abc for d in dims(*t) if (*t, d) not in self.F), None)
        extra = next(
            (k for k in sorted(self.F) if not (len(k) == 4 and all(0 <= x < r for x in k) and k[3] in dims(*k[:3]))),
            None,
        )
        if missing or extra:
            raise ShapeError(f"F keys mismatch: first missing {missing}, first extra {extra}")
        for key, (dl, dr) in (((*t, d), v) for t in abc for d, v in dims(*t).items()):
            if dl != dr:
                raise ShapeError(
                    f"tree spaces at {key} have dims {dl} and {dr}: fusion tensor is not associative"
                )
            m = self.F[key]
            if not isinstance(m, Matrix) or m.rows != dr or m.cols != dl:
                raise ShapeError(f"F block at {key} is not a {dr}x{dl} matrix")
            if u in key[:3] and m != Matrix.identity(dl):
                raise ShapeError(f"F block at {key} must be an identity (strict unit)")


@dataclass(frozen=True)
class FiberData:
    """A fiber functor's linear data: dimensions, tensor structure J, the
    unit scalar iota, and coefficient vectors picking evaluation and
    coevaluation morphisms out of the relevant multiplicity spaces.  It
    holds these fields and nothing derived from them: the pairings are
    read off J where they are used (pairing_matrix).

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
        if not iota:
            raise ShapeError("iota must be nonzero")
        object.__setattr__(self, "iota", iota)
        for name in ("ev_coeff", "coev_coeff"):
            raw = getattr(self, name)
            if raw is None:
                raw = ((1,),) * len(dims)
            vecs = tuple(tuple(sc(x) for x in v) for v in raw)
            object.__setattr__(self, name, vecs)


def validate_fiber(skel: FusionRules, fiber: FiberData) -> None:
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
    product, checked for every (a, b, c, d, total) with a tree and no unit
    among a, b, c and d.

    Trees, with their basis labels:
      T1 ((ab)c)d : (x, m1, y, m2, m3)   x in ab, y in xc, total in yd
      T2 (ab)(cd) : (x, m1, z, rho, tau) z in cd, total in xz
      T3 (a(bc))d : (v, s, y, t, u)      v in bc, y in av, total in yd
      T4 a((bc)d) : (v, s, w, tp, up)    w in vd, total in aw
      T5 a(b(cd)) : (z, rho, w, nu, sig) w in bz, total in aw
    The two-step path T1->T2->T5 must equal the three-step T1->T3->T4->T5.
    Each T1 basis vector is pushed through both paths on the lowered
    blocks (`_pentagon_kernel`); a failing tuple reports both paths as
    T5 x T1 matrices read back from those images (`_pentagon_render`).

    The quintuples with a unit 1 among a, b, c and d hold by the strict
    units (Mac Lane coherence; Etingof-Gelaki-Nikshych-Ostrik, Tensor
    Categories, 2.2), case by case.  FusionSkeleton admits no F block with
    a unit among its first three slots that is not an identity, and F is
    read-only after that check; the rank of an identity is its size, so
    only the other blocks are ranked.  Every multiplicity label of a
    fusion with the unit is 0, so each tree of such a block carries one
    label that may be nonzero, and the identity sends a left tree to the
    right tree of the same label (at 1 in the first slot, (e, 0, k) to
    (f, k, 0)): it respects the orders of f_left_basis and f_right_basis.
      1 at a: x = b and w = tot; F[1,b,c,y], F[1,v,d,tot] and
        F[1,b,z,tot] are identities, so both paths apply the one block
        F[b,c,d,tot].
      1 at b: x = a and v = c; F[a,1,z,tot], F[a,1,c,y] and F[1,c,d,w]
        are identities, so both paths apply F[a,c,d,tot].
      1 at c: y = x, z = d and v = b; F[x,1,d,tot], F[a,b,1,y] and
        F[b,1,d,w] are identities, so both paths apply F[a,b,d,tot].
      1 at d: y = tot, z = c and w = v; F[x,c,1,tot], F[a,v,1,tot] and
        F[b,c,1,w] are identities, so both paths apply F[a,b,c,tot].
    So the walk visits only the unit-free quintuples, each once, in
    lexicographic order: grouped by F key (a, b, c), then by (d, tot),
    read off the lists of the (d, tot) with N[y][d][tot] > 0 kept per y.
    """
    rep = CheckReport("pentagon")
    N, r, F, u = skel.fusion, skel.rank, skel.F, skel.unit

    for key in sorted(F):
        if u not in key[:3] and (k := F[key].rank()) != F[key].rows:
            rep.add("recoordinatization-invertible", key, f"rank {k}", f"rank {F[key].rows}")

    # a cell of either side sums at most dim^2 products of three factors
    dim = max((m.rows for m in F.values()), default=0)
    D, M, low, high = packing([x for m in F.values() for x in m.entries], [(dim * dim, 3)] * 2)
    images = _pentagon_kernel(skel, low)

    # y -> the (d, tot) with d not the unit and N[y][d][tot] > 0, ascending
    after = [[(d, t) for d in range(r) if d != u for t, n in enumerate(N[y][d]) if n] for y in range(r)]
    firsts: dict = {}  # (a, b, c) without a unit -> the y of its F keys
    for a, b, c, y in sorted(F):
        if u != a and u != b and u != c:
            firsts.setdefault((a, b, c), []).append(y)
    for (a, b, c), ys in firsts.items():
        # the (d, tot) of a quintuple with a tree; one y's list is in order
        for d, tot in after[ys[0]] if len(ys) == 1 else sorted({p for y in ys for p in after[y]}):
            imgs = images(a, b, c, d, tot)
            for _, lhs, rhs in imgs:
                if not same_sides(lhs, rhs, M, D):
                    rep.add("pentagon", (a, b, c, d, tot), *_pentagon_render(skel, imgs, (a, b, c, d, tot), high, D))
                    break
    return rep


def _pentagon_kernel(skel, low):
    """images(a, b, c, d, tot): for each T1 basis vector of verify_pentagon,
    its label and its images along the two-step and the three-step path,
    as dicts over T5 labels, in a list.  Each F block is lowered by low
    once, to a column map left tree -> [(right tree, int)] of its nonzero
    entries, with the trees read off the nonzero N.  The three-step path
    sums in T4 first and goes on from the cells that are not 0, as a
    matrix product would; cancelled cells of either image are kept."""
    N, r, F = skel.fusion, skel.rank, skel.F
    nz = [[[(z, n) for z, n in enumerate(row) if n] for row in plane] for plane in N]
    cols = {}
    for (a, b, c, d), m in F.items():
        lb = [(e, mu, nu) for e, n in nz[a][b] for mu in range(n) for nu in range(N[e][c][d])]
        rb = [(f, rho, sig) for f, n in nz[b][c] for rho in range(n) for sig in range(N[a][f][d])]
        col = cols[a, b, c, d] = {lt: [] for lt in lb}
        for o, x in enumerate(m.entries):
            if x:
                i, j = divmod(o, m.cols)
                col[lb[j]].append((rb[i], low(x)))

    # (y, N[y][d][tot]) over the y with N[y][d][tot] > 0, ascending
    ys = [[[(y, N[y][d][tot]) for y in range(r) if N[y][d][tot]] for tot in range(r)] for d in range(r)]

    def images(a, b, c, d, tot):
        out = []
        for y, k in ys[d][tot]:
            if (first := cols.get((a, b, c, y))) is None:
                continue
            for m3 in range(k):
                # T1 basis vector (x, m1, y, m2, m3), and its image in T3
                for (x, m1, m2), to_t3 in first.items():
                    lhs, t4, rhs = {}, {}, {}
                    for (z, rho, tau), f in cols[x, c, d, tot][y, m2, m3]:
                        for (w, nu, sig), g in cols[a, b, z, tot][x, m1, tau]:
                            lab = (z, rho, w, nu, sig)
                            lhs[lab] = lhs.get(lab, 0) + f * g
                    for (v, s, t), f in to_t3:
                        for (w, tp, up), g in cols[a, v, d, tot][y, t, m3]:
                            lab = (v, s, w, tp, up)
                            t4[lab] = t4.get(lab, 0) + f * g
                    for (v, s, w, tp, up), fg in t4.items():
                        if fg:
                            for (z, rho, nu), h in cols[b, c, d, w][v, s, tp]:
                                lab = (z, rho, w, nu, up)
                                rhs[lab] = rhs.get(lab, 0) + fg * h
                    out.append(((x, m1, y, m2, m3), lhs, rhs))
        return out

    return images


def _pentagon_render(skel, images, key, high, D: int) -> list:
    """Both sides at key = (a, b, c, d, tot) as the module docstring
    states, from the images of the kernel that decided key, read back by
    high: the two-step side at D^2 and the three-step side at D^3.  Each
    distinct int of a side, 0 for every absent cell included, is read back
    once."""
    N, r = skel.fusion, skel.rank
    a, b, c, d, tot = key
    t5 = [(z, rho, *rt) for z in range(r) for rho in range(N[c][d][z]) for rt in f_right_basis(N, a, b, z, tot)]
    images = sorted(images, key=operator.itemgetter(0))
    out = []
    for side, scale in ((1, D**2), (2, D**3)):
        ints = [img[side].get(lab, 0) for lab in t5 for img in images]
        back = {v: high(v, scale) for v in set(ints)}
        out.append(Matrix._of(len(t5), len(images), [back[v] for v in ints]))
    return out


# -- fiber functor compatibility -------------------------------------------

def _copy_offset(n_ab, dims, c: int, mu: int = 0) -> int:
    """Row where copy mu of simple c starts in a J block whose targets
    have multiplicities n_ab[c] (c ascending, copy outer, fiber inner)."""
    return sum(n_ab[x] * dims[x] for x in range(c)) + mu * dims[c]


def tree_maps(N, J, dims, a: int, b: int, c: int) -> list:
    """The trees (a b c) -> d realized through J, for every total d that
    has a tree, ascending.

    Each entry is (d, left, right): left has one row per tree of
    f_left_basis(N, a, b, c, d), in that order, holding its dims[d] x
    (dims[a] dims[b] dims[c]) map row-major; right likewise for
    f_right_basis.  Left tree (e, mu, nu) is copy nu of d in J[(e, c)]
    after copy mu of e in J[(a, b)] (x) I; right tree (f, rho, sigma) is
    copy sigma of d in J[(a, f)] after I (x) copy rho of f in J[(b, c)].
    Both are read off the lowered rows of the two J blocks (`_trees`): the
    identity factor is index arithmetic, so no kron, identity or product
    is built.  Each flat matrix is handed its lowering, at D the lcm of
    its trees', by `matrices._reduced`; its entries and conductor are
    those of the per-tree products, promoted to the lcm of their
    conductors.
    """
    r = len(N)
    da, dc, dbc = dims[a], dims[c], dims[b] * dims[c]
    width = da * dbc
    left, right = [[] for _ in range(r)], [[] for _ in range(r)]
    for x in range(r):
        dx = dims[x]
        if N[a][b][x]:  # column q dc + k of J[(x, c)] meets row q of the copy at cell dc t + k
            split = [divmod(col, dc) for col in range(dx * dc)]
            for mu in range(N[a][b][x]):
                off = _copy_offset(N[a][b], dims, x, mu)
                _trees(J[(x, c)], N[x][c], J[(a, b)], off, split, dc, dims, width, left)
        if N[b][c][x]:  # column i dx + q of J[(a, x)] meets row q of the copy at cell i dbc + t
            split = [(col % dx, col // dx * dbc) for col in range(da * dx)]
            for rho in range(N[b][c][x]):
                off = _copy_offset(N[b][c], dims, x, rho)
                _trees(J[(a, x)], N[a][x], J[(b, c)], off, split, 1, dims, width, right)
    return [(d, *(_reduced(dims[d] * width, t[d]) for t in (left, right))) for d in range(r) if left[d] or right[d]]


def _trees(second, n_xy, first, off: int, split: list, stride: int, dims, width: int, out: list) -> None:
    """Append to out[d], for each copy of each simple d in the J block
    second (n_xy[d] copies, in J's row order), its tree after the copy of
    first whose rows start at off, as (D, its flat row's cells x
    enumerated), the row of `matrices._reduced`.  Row p of the tree sums,
    over the pairs (col, u) of that copy's row p of second, u times row q
    of the copy, each of its pairs (t, y) adding u y to cell p width + base
    + stride t, where (q, base) = split[col].  Cells whose terms cancel
    stay zero Scalars off conductor 1, as in a product."""
    ds, srows = second._lowered()
    df, frows = first._lowered()
    i = 0
    for d, k in enumerate(n_xy):
        for _ in range(k):
            acc = [0] * (dims[d] * width)
            for o in range(0, dims[d] * width, width):
                for col, u in srows[i]:
                    q, base = split[col]
                    for t, y in frows[off + q]:
                        acc[o + base + stride * t] += u * y
                i += 1
            out[d].append((ds * df, enumerate(acc)))


def verify_tensorator(skel: FusionSkeleton, fiber: FiberData) -> CheckReport:
    """The fiber functor's J against the category's F: for every triple and
    total d, the trees of tree_maps satisfy R_y = sum_x F[y, x] L_x, so
    decomposing (ab)c through J and recoordinatizing by F equals
    decomposing a(bc) through J.  With one flat tree per row, row y of
    F * left is sum_x F[y, x] L_x row-major, which `matrices._is_product`
    compares with right.  A failing triple reports both sides, F * left
    multiplied out, stacked over d and cut into rows of dims[a] dims[b]
    dims[c].  Also the strict unit constraints on J.

    Raises NonInvertibleJ when some J block is singular; everything else
    is reported, not raised.  Each block's inverse is kept by mat_inverse.
    """
    validate_fiber(skel, fiber)
    rep = CheckReport("tensor-structure")
    r = skel.rank
    d = fiber.dims
    for key in sorted(fiber.J):
        try:
            mat_inverse(fiber.J[key])
        except ValueError:
            raise NonInvertibleJ(f"J[{key}] is singular") from None

    u = skel.unit
    iota = fiber.iota
    for a in range(r):
        want = iota * Matrix.identity(d[a])
        if fiber.J[(u, a)] != want:
            rep.add("unit-left", (a,), fiber.J[(u, a)], want)
        if fiber.J[(a, u)] != want:
            rep.add("unit-right", (a,), fiber.J[(a, u)], want)

    for a, b, c in product(range(r), repeat=3):
        realized = tree_maps(skel.fusion, fiber.J, d, a, b, c)
        trees = [(skel.F[(a, b, c, dd)], left, right) for dd, left, right in realized if left.rows]
        if not all(_is_product(*t) for t in trees):
            lhs = [x for f, left, _ in trees for x in (f * left).entries]
            rhs = [x for _, _, right in trees for x in right.entries]
            width = d[a] * d[b] * d[c]
            rep.add("compatibility", (a, b, c), *(Matrix._of(len(t) // width, width, t) for t in (lhs, rhs)))
    return rep


# -- duality ----------------------------------------------------------------

def _unit_copies(coeffs, scale, rows: int, cols: int, entry) -> Matrix:
    """The rows x cols matrix scale * sum_mu coeffs[mu] entry(mu, i * cols + j)."""
    def at(i, j):
        return scale * sum((c * entry(mu, i * cols + j) for mu, c in enumerate(coeffs)), sc(0))

    return Matrix.from_rows([[at(i, j) for j in range(cols)] for i in range(rows)])


def pairing_matrix(skel: FusionRules, fiber: FiberData, a: int) -> Matrix:
    """P with P[i][j] = p(f_i (x) e_j), the pairing F(a*) (x) F(a) -> K
    realized by the selected evaluation morphism through J[(a*, a)].

    The unit block of J[(a*, a)] has one row per copy of the unit (the
    unit's fiber is a line); ev_coeff[a] combines those rows.  P is read
    off J afresh at each call: nothing of it is kept on the fiber."""
    ad = skel.dual[a]
    j = fiber.J[(ad, a)]
    off = _copy_offset(skel.fusion[ad][a], fiber.dims, skel.unit)
    return _unit_copies(
        fiber.ev_coeff[a], sc(1) / fiber.iota, fiber.dims[ad], fiber.dims[a], lambda mu, k: j.at(off + mu, k)
    )


def copairing_matrix(skel: FusionRules, fiber: FiberData, a: int) -> Matrix:
    """Q with q = sum_{i,j} Q[i][j] e_i (x) f_j, the copairing
    K -> F(a) (x) F(a*): coev_coeff[a] picks a vector supported on the
    unit block, carried back to F(a) (x) F(a*) by the inverse of J."""
    ad = skel.dual[a]
    try:
        jinv = mat_inverse(fiber.J[(a, ad)])
    except ValueError:
        raise NonInvertibleJ(f"J[({a},{ad})] is singular") from None
    off = _copy_offset(skel.fusion[a][ad], fiber.dims, skel.unit)
    return _unit_copies(
        fiber.coev_coeff[a], fiber.iota, fiber.dims[a], fiber.dims[ad], lambda mu, k: jinv.at(k, off + mu)
    )


def verify_duality(skel: FusionSkeleton, fiber: FiberData) -> CheckReport:
    """Both zigzag identities for every simple, as matrix equations on the
    pairing and copairing, decided by `matrices._is_product`; a failing
    zigzag reports its product multiplied out against the identity."""
    validate_fiber(skel, fiber)
    rep = CheckReport("duality")
    for a in range(skel.rank):
        p = pairing_matrix(skel, fiber, a)
        q = copairing_matrix(skel, fiber, a)
        for check, x, y in (("zigzag-qp", q, p), ("zigzag-pq", p, q)):
            eye = Matrix.identity(x.rows)
            if not _is_product(x, y, eye):
                rep.add(check, (a,), x * y, eye)
    return rep


def compute_delta(skel: FusionRules, fiber: FiberData) -> dict:
    """Transpose pairings delta_a = P_a^T used to conjugate between a
    block and its dual's block, each holding its inverse for mat_inverse.
    Each pairing is read off J here and inverted once.  Raises NonRigid
    when some pairing is singular, since then no antipode can be formed."""
    validate_fiber(skel, fiber)
    out = {}
    for a in range(skel.rank):
        p = pairing_matrix(skel, fiber, a)
        try:
            pinv = mat_inverse(p)
        except (ShapeError, ValueError):
            raise NonRigid(f"pairing for simple {a} is singular") from None
        out[a] = _with_inverse(p.transpose(), pinv.transpose())
    return out


def verify_category(skel: FusionSkeleton, fiber: FiberData | None = None) -> list:
    """The full coherence suite: pentagon, then with a fiber the tensor
    structure compatibility and the duality zigzags."""
    reports = [verify_pentagon(skel)]
    if fiber is not None:
        reports.append(verify_tensorator(skel, fiber))
        reports.append(verify_duality(skel, fiber))
    return reports
