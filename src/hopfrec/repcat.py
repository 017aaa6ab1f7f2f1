"""Finite dimensional modules over a presented algebra, their tensor
calculus, and the passage from a complete family of split irreducibles to
skeletal category data with the forgetful fiber functor.

A module is the tuple of action matrices of the algebra basis.  All
decompositions use the canonical echelon bases of intertwiner spaces, so
every derived object (J, F, duals, coevaluations) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DecompositionGap, NonRigid, RoundTripFailure, ShapeError, SkeletalizationFailure
from .fusion import (
    FiberData,
    FusionSkeleton,
    f_left_basis,
    f_right_basis,
    pairing_matrix,
    verify_category,
)
from .hopf import AlgebraPresentation, HopfPresentation, check_hopf_morphism
from .matrices import Matrix, mat_inverse, mat_kernel, mat_solve
from .reports import CheckReport
from .scalars import ZERO


@dataclass(frozen=True)
class ModuleRep:
    dim: int
    action: tuple  # one dim x dim Matrix per algebra basis element
    name: str = "V"

    def __post_init__(self):
        object.__setattr__(self, "action", tuple(self.action))
        if not self.action:
            raise ShapeError("module over a zero dimensional algebra")
        for m in self.action:
            if not isinstance(m, Matrix) or m.rows != self.dim or m.cols != self.dim:
                raise ShapeError(f"action matrix is not {self.dim}x{self.dim}")


@dataclass(frozen=True)
class Decomposition:
    """V presented as a direct sum of a fixed irreducible family: mult[b]
    copies of the b-th irreducible, with tau mapping V isomorphically onto
    the ordered sum (b ascending, copy index outer, irreducible basis inner)."""

    mult: tuple
    tau: Matrix


@dataclass(frozen=True)
class SliceMorphismData:
    """A linear functor between two fibered categories, recorded per source
    simple a: the multiplicities mult[a][b] of target simples in the image
    of a, and an invertible tau[a] from the source fiber of a onto the
    realized sum of target fibers (b ascending, copy outer, fiber inner).
    """

    mult: tuple  # mult[a][b] nonnegative integers, one row per source simple
    tau: tuple  # one invertible Matrix per source simple

    def __post_init__(self):
        object.__setattr__(
            self, "mult", tuple(tuple(int(x) for x in row) for row in self.mult)
        )
        object.__setattr__(self, "tau", tuple(self.tau))
        if len(self.mult) != len(self.tau):
            raise ShapeError("one multiplicity row and one tau per source simple")
        for m in self.tau:
            if not isinstance(m, Matrix) or not m.is_square():
                raise ShapeError("tau components must be square matrices")


def trivial_module(h: HopfPresentation) -> ModuleRep:
    return ModuleRep(1, tuple(Matrix(1, 1, [x]) for x in h.counit), "1")


def tensor_module(h: HopfPresentation, v: ModuleRep, w: ModuleRep) -> ModuleRep:
    """Action through the comultiplication on the row-major tensor basis."""
    n = h.dim
    action = []
    for i in range(n):
        acc = Matrix.zeros(v.dim * w.dim, v.dim * w.dim)
        for j in range(n):
            for k in range(n):
                c = h.comult[i][j][k]
                if not c.is_zero():
                    acc = acc + c * v.action[j].kron(w.action[k])
        action.append(acc)
    return ModuleRep(v.dim * w.dim, tuple(action), f"({v.name}(x){w.name})")


def dual_module(h: HopfPresentation, v: ModuleRep) -> ModuleRep:
    """Contragredient action: transpose of the action of the antipode."""
    n = h.dim
    s = h.antipode
    action = []
    for i in range(n):
        acc = Matrix.zeros(v.dim, v.dim)
        for j in range(n):
            c = s.at(j, i)
            if not c.is_zero():
                acc = acc + c * v.action[j]
        action.append(acc.transpose())
    return ModuleRep(v.dim, tuple(action), f"{v.name}*")


def hom_space(v: ModuleRep, w: ModuleRep) -> list:
    """Canonical basis of intertwiners v -> w, as dim(w) x dim(v) matrices.

    T intertwines iff act_w(e_i) T = T act_v(e_i) for every basis element;
    row-major vectorization turns each constraint into a kernel condition
    on act_w (x) I - I (x) act_v^T.  The kernel is refined one constraint
    at a time, which usually stabilizes after a few basis elements, and is
    re-echelonized at the end so the result equals the canonical reduced
    basis of the joint kernel.
    """
    assert len(v.action) == len(w.action)
    ker = Matrix.identity(w.dim * v.dim)
    for av, aw in zip(v.action, w.action):
        if ker.cols == 0:
            break
        hit = _intertwiner_constraint(av, aw) * ker
        if hit.is_zero():
            continue
        ker = ker * mat_kernel(hit)
    if ker.cols:
        red, _ = ker.transpose().rref()
        rows = [red.row(i) for i in range(red.rows) if any(red.row(i))]
        ker = Matrix._of(len(rows), ker.rows, [x for r in rows for x in r]).transpose()
    return [Matrix._of(w.dim, v.dim, [ker.at(i, c) for i in range(ker.rows)]) for c in range(ker.cols)]


def _intertwiner_constraint(av: Matrix, aw: Matrix) -> Matrix:
    """aw (x) I - I (x) av^T, written entry by entry: row (i, k) holds
    aw[i, j] at column (j, k) and -av[l, k] at column (i, l)."""
    nv, nw = av.rows, aw.rows
    n = nv * nw
    out = [ZERO] * (n * n)
    for i in range(nw):
        for j, x in enumerate(aw.row(i)):
            if x:
                for k in range(nv):
                    out[(i * nv + k) * n + j * nv + k] = x
        for k in range(nv):
            for l in range(nv):
                y = av.at(l, k)
                if y:
                    p = (i * nv + k) * n + i * nv + l
                    out[p] = out[p] - y
    return Matrix._of(n, n, out)


def verify_irreps(alg: AlgebraPresentation, modules: list) -> CheckReport:
    """The family is a complete set of pairwise distinct split irreducible
    modules: actions respect the structure tensors, endomorphism spaces are
    one dimensional, cross homs vanish, and squared dimensions fill the
    algebra."""
    rep = CheckReport("irreducible-family")
    n = alg.dim
    for idx, v in enumerate(modules):
        if len(v.action) != n:
            raise ShapeError(f"module {idx} has {len(v.action)} action matrices for dim {n}")
        uni = Matrix.zeros(v.dim, v.dim)
        for i in range(n):
            if not alg.unit[i].is_zero():
                uni = uni + alg.unit[i] * v.action[i]
        if uni != Matrix.identity(v.dim):
            rep.add("module-unit", (idx,), uni, Matrix.identity(v.dim))
        for i in range(n):
            for j in range(n):
                lhs = v.action[i] * v.action[j]
                rhs = Matrix.zeros(v.dim, v.dim)
                for k in range(n):
                    c = alg.mult[i][j][k]
                    if not c.is_zero():
                        rhs = rhs + c * v.action[k]
                if lhs != rhs:
                    rep.add("module-structure", (idx, i, j), lhs, rhs)

    for idx, v in enumerate(modules):
        endo = len(hom_space(v, v))
        if endo != 1:
            rep.add("split-irreducible", (idx,), f"dim End = {endo}", "dim End = 1")
    for a in range(len(modules)):
        for b in range(len(modules)):
            if a == b:
                continue
            cross = len(hom_space(modules[a], modules[b]))
            if cross:
                rep.add("distinct", (a, b), f"dim Hom = {cross}", "dim Hom = 0")
    total = sum(v.dim * v.dim for v in modules)
    if total != n:
        rep.add("complete", (), f"sum of squared dims = {total}", f"algebra dim = {n}")
    return rep


def decompose(v: ModuleRep, irreps: list) -> Decomposition:
    """Multiplicities and the isomorphism onto the ordered isotypic sum.
    Raises DecompositionGap when the family does not exhaust v."""
    cols = []
    mult = []
    for w in irreps:
        basis = hom_space(w, v)
        mult.append(len(basis))
        for t in basis:
            for j in range(t.cols):
                cols.append([t.at(i, j) for i in range(t.rows)])
    total = len(cols)
    if total != v.dim:
        raise DecompositionGap(
            f"module {v.name} has dim {v.dim} but the family accounts for {total}"
        )
    stack = Matrix.from_rows(cols).transpose()  # columns embed the sum into v
    if stack.rank() != v.dim:
        raise DecompositionGap(f"isotypic images of {v.name} are degenerate")
    return Decomposition(tuple(mult), mat_inverse(stack))


# -- skeletal data from a module family -------------------------------------

def _row_block(j: Matrix, n_row, dims, c: int, mu: int) -> Matrix:
    """Rows of a decomposition matrix realizing copy mu of simple c."""
    off = sum(n_row[cc] * dims[cc] for cc in range(c)) + mu * dims[c]
    return Matrix.from_rows([j.row(off + t) for t in range(dims[c])])


def skeletalize(h: HopfPresentation, modules: list, verify: bool = True):
    """Skeletal fusion data of the module category on the given family,
    with the forgetful functor's tensor structure.

    Returns (FusionSkeleton, FiberData).  The multiplicity bases are the
    canonical intertwiner bases, so J, F and the duality coefficients are
    uniquely determined by the input.
    """
    fam = verify_irreps(h.alg, modules)
    if not fam.passed:
        raise SkeletalizationFailure(
            "modules are not a complete split irreducible family", fam
        )
    r = len(modules)
    dims = tuple(v.dim for v in modules)

    unit = None
    triv = trivial_module(h)
    for idx, v in enumerate(modules):
        if v.dim == 1 and v.action == triv.action:
            unit = idx
            break
    if unit is None:
        raise SkeletalizationFailure("the family does not contain the trivial module")

    N = [[None] * r for _ in range(r)]
    J = {}
    for a in range(r):
        for b in range(r):
            dec = decompose(tensor_module(h, modules[a], modules[b]), modules)
            N[a][b] = list(dec.mult)
            J[(a, b)] = dec.tau
    Ntup = tuple(tuple(tuple(row) for row in plane) for plane in N)

    F = {}
    for a in range(r):
        for b in range(r):
            for c in range(r):
                for d in range(r):
                    lb = f_left_basis(Ntup, a, b, c, d)
                    rb = f_right_basis(Ntup, a, b, c, d)
                    if not lb and not rb:
                        continue
                    if len(lb) != len(rb):
                        raise SkeletalizationFailure(
                            f"tree spaces at {(a, b, c, d)} have dims {len(lb)} and {len(rb)}"
                        )
                    idc = Matrix.identity(dims[c])
                    ida = Matrix.identity(dims[a])
                    lcols = []
                    for (e, mu, nu) in lb:
                        mblk = _row_block(J[(a, b)], N[a][b], dims, e, mu)
                        nblk = _row_block(J[(e, c)], N[e][c], dims, d, nu)
                        lcols.append(list((nblk * mblk.kron(idc)).entries))
                    rcols = []
                    for (f, rho, sigma) in rb:
                        rblk = _row_block(J[(b, c)], N[b][c], dims, f, rho)
                        sblk = _row_block(J[(a, f)], N[a][f], dims, d, sigma)
                        rcols.append(list((sblk * ida.kron(rblk)).entries))
                    lmat = Matrix.from_rows(lcols).transpose()
                    rmat = Matrix.from_rows(rcols).transpose()
                    x = mat_solve(lmat, rmat)
                    if x is None:
                        raise SkeletalizationFailure(
                            f"recoordinatization at {(a, b, c, d)} is not solvable"
                        )
                    F[(a, b, c, d)] = x.transpose()

    dual = [None] * r
    for a in range(r):
        dm = dual_module(h, modules[a])
        for b in range(r):
            if modules[b].dim == dm.dim and hom_space(dm, modules[b]):
                dual[a] = b
                break
        if dual[a] is None:
            raise SkeletalizationFailure(f"no dual in the family for module {a}")

    skel = FusionSkeleton(
        rank=r,
        fusion=Ntup,
        dual=tuple(dual),
        F=F,
        unit=unit,
        names=tuple(v.name for v in modules),
    )
    # ev is normalized to coefficient 1; solve coev so the zigzags close.
    # The echelon-normalized J gives J[(unit, a)] = identity, hence iota = 1.
    fiber = FiberData(dims=dims, J=J)

    coev = []
    for a in range(r):
        p = pairing_matrix(skel, fiber, a)
        if not p.is_square() or p.rank() != p.rows:
            raise NonRigid(f"pairing for simple {a} is singular")
        q = mat_inverse(p)
        w = J[(a, dual[a])] * Matrix.column(q.entries)
        off = sum(Ntup[a][dual[a]][cc] * dims[cc] for cc in range(unit))
        for i in range(w.rows):
            if i != off and not w.at(i, 0).is_zero():
                raise SkeletalizationFailure(
                    f"copairing for simple {a} is not supported on the unit"
                )
        coev.append((w.at(off, 0),))
    fiber = FiberData(dims=dims, J=J, coev_coeff=tuple(coev))

    if verify:
        reports = verify_category(skel, fiber)
        bad = [rep for rep in reports if not rep.passed]
        if bad:
            raise SkeletalizationFailure(
                f"derived skeletal data fails its own coherence: {bad[0].name}", bad[0]
            )
    return skel, fiber


def gamma_roundtrip(h: HopfPresentation, modules: list, verify: bool = True):
    """Skeletalize the module category, rebuild a Hopf algebra from it, and
    compare with the original along the tautological evaluation map.

    gamma sends a basis element to the block diagonal of its actions.  The
    returned report checks that gamma is a bijective map respecting
    multiplication, unit, comultiplication, counit and antipode; the matrix
    of gamma is returned alongside.
    """
    return _roundtrip(h, modules, verify)[:2]


def _roundtrip(h: HopfPresentation, modules: list, verify: bool = True):
    """gamma_roundtrip, returning (report, gamma, reconstruction).  The
    category data is checked once, by skeletalize."""
    if not modules:
        raise RoundTripFailure("no modules given")
    skel, fiber = skeletalize(h, modules, verify=verify)
    from .reconstruct import _assemble, endf_offsets

    recon = _assemble(skel, fiber, verify)
    nq = recon.hopf.dim
    offsets = endf_offsets([v.dim for v in modules])
    cols = []
    for i in range(h.dim):
        col = [ZERO] * nq
        for a, v in enumerate(modules):
            m = v.action[i]
            for k in range(v.dim):
                for l in range(v.dim):
                    col[offsets[a] + k * v.dim + l] = m.at(k, l)
        cols.append(col)
    gamma = Matrix.from_rows(cols).transpose()

    rep = check_hopf_morphism(h, recon.hopf, gamma)
    if not rep.flags.get("bijective", False):
        rep.add("bijective", (), f"rank {gamma.rank()} of {gamma.rows}x{gamma.cols}", "invertible")
    return rep, gamma, recon
