"""Rebuilding a Hopf algebra from skeletal category data with a fiber
functor, as the endomorphisms of the functor.

An endomorphism of the functor is a tuple of blocks, one d_a x d_a matrix
per simple a.  The basis is the matrix units of the blocks in simple
order, index(a, i, j) = offset_a + i * d_a + j, so multiplication is
blockwise matrix multiplication.  Comultiplication conjugates the block
sum through J and reads tensor coordinates off the result; the counit is
the unit block; the antipode conjugates the dual block through the
transpose pairing and transposes.

The comultiplication is summed on ints (`_comult`).  The J blocks and
their inverses are lowered once into one `scalars.packing` ring per
conductor of their entries, so each cell is read back at the conductor
that the Scalar sum of its products would have.  A cell of the plane of
E^c_ij in the block of a (x) b sums one product J^-1[t, o+i] J[o+j, u]
per copy o of c in a (x) b: at most N[a][b][c] products of two lowered
factors.  That is the packing bound: a ring is built for the side (the
largest such N over its blocks, 2), so every coefficient of a cell's
unreduced polynomial lies below B/2 and high(v, D^2) reads the cell back
exactly (the proof is in `scalars`).  Each distinct int is read back
once, and a cell that stands for 0 is dropped, as a zero Scalar sum
would be.

`_assemble` builds the presentation unchecked.  With verify on,
reconstruct_hopf checks the category data first and the result against
every Hopf axiom after (`_require_hopf`).  A round trip
(`repcat.gamma_roundtrip`) checks the result the same way unless
transport along gamma certifies it.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .errors import ReconstructionAxiomFailure, ShapeError
from .fusion import FiberData, FusionRules, FusionSkeleton, _copy_offset, compute_delta, validate_fiber, verify_category
from .hopf import AlgebraPresentation, HopfPresentation, StructureTensor, run_hopf_checks
from .matrices import Matrix, block_diag, mat_inverse
from .repcat import ModuleRep, SliceMorphismData
from .scalars import ONE, ZERO, packing, vanishes


def endf_basis(dims) -> list:
    """Basis labels (simple, row, col) in layout order."""
    return [(a, i, j) for a, d in enumerate(dims) for i in range(d) for j in range(d)]


def endf_offsets(dims) -> list:
    out = []
    off = 0
    for d in dims:
        out.append(off)
        off += d * d
    return out


class ReconstructionResult(NamedTuple):
    hopf: HopfPresentation
    basis: tuple  # (simple, row, col) per basis element
    dims: tuple
    unit: int
    names: tuple


def _matrix_unit(d: int, i: int, j: int) -> Matrix:
    return Matrix(d, d, [ONE if (r, c) == (i, j) else ZERO for r in range(d) for c in range(d)])


def endf_algebra(skel: FusionRules, fiber: FiberData):
    """The block algebra of endomorphisms of the fiber functor: one full
    matrix block per simple, on the matrix unit basis (a, i, j) with rows
    outer.  Returns the presentation and the basis label list."""
    validate_fiber(skel, fiber)
    r = skel.rank
    d = fiber.dims
    basis = endf_basis(d)
    offs = endf_offsets(d)
    n = len(basis)

    def idx(a, i, j):
        return offs[a] + i * d[a] + j

    # E_ij E_jk = E_ik within the block of a
    mult = StructureTensor(n, (
        [(idx(a, j, k), idx(a, i, k), ONE) for k in range(d[a])] for a, i, j in basis
    ))
    unit = [ZERO] * n
    for a in range(r):
        for i in range(d[a]):
            unit[idx(a, i, i)] = ONE
    return AlgebraPresentation(n, mult, unit), tuple(basis)


def reconstruct_hopf(
    skel: FusionSkeleton, fiber: FiberData, verify: bool = True
) -> ReconstructionResult:
    """The Hopf algebra presentation of End of the fiber functor.

    With verify on (the default), the category data is checked first and
    the assembled presentation is re-checked against every Hopf axiom;
    any failure raises ReconstructionAxiomFailure carrying the reports.
    """
    validate_fiber(skel, fiber)
    if verify:
        reports = verify_category(skel, fiber)
        bad = [r for r in reports if not r.passed]
        if bad:
            raise ReconstructionAxiomFailure("category data fails coherence", bad)
    recon = _assemble(skel, fiber)
    if verify:
        _require_hopf(recon.hopf)
    return recon


def _assemble(skel: FusionRules, fiber: FiberData) -> ReconstructionResult:
    """The presentation of reconstruct_hopf, assembled unchecked: the
    caller knows the category data coherent, and checks the result by
    `_require_hopf` where it must (reconstruct_hopf with verify on, the
    round trip when gamma does not certify it)."""
    r = skel.rank
    d = fiber.dims
    alg, basis = endf_algebra(skel, fiber)
    offs = endf_offsets(d)
    n = len(basis)

    def idx(a, i, j):
        return offs[a] + i * d[a] + j

    counit = [ZERO] * n
    for i, (a, _k, _l) in enumerate(basis):
        if a == skel.unit:
            counit[i] = ONE

    delta = compute_delta(skel, fiber)
    # S(E^a_ij) = (delta E_ij delta^-1)^T in the block of a*, delta = delta[a*]
    anti = [[ZERO] * n for _ in range(n)]
    for a in range(r):
        ad = skel.dual[a]
        dinv = mat_inverse(delta[ad])
        for i in range(d[a]):
            for j in range(d[a]):
                for k in range(d[ad]):
                    for l in range(d[ad]):
                        if (x := delta[ad].at(l, i)) and (y := dinv.at(j, k)):
                            anti[idx(ad, k, l)][idx(a, i, j)] = x * y
    hopf = HopfPresentation(alg, _comult(skel.fusion, fiber), counit, Matrix.from_rows(anti))
    return ReconstructionResult(hopf, tuple(basis), tuple(d), skel.unit, skel.names)


def _comult(N, fiber: FiberData) -> StructureTensor:
    """The comult of _assemble, summed on ints in one packed ring per
    conductor of the J blocks (the bound is in the module docstring).
    E^c_ij sits at (o+i, o+j) of each copy o of c in a (x) b, so its image
    J^-1 E J is the sum over the copies of J^-1[:, o+i] J[o+j, :], and the
    cells (q1, q2) of plane (c, i, j) that a (x) b reaches lie in blocks a
    and b; no other pair reaches them.  Each distinct sum of a ring is
    read back once by high(v, D^2), in a memo that ends with the ring."""
    d = fiber.dims
    offs = endf_offsets(d)
    planes = [{} for _ in range(sum(x * x for x in d))]
    rings: dict = {}  # conductor -> the J blocks there, each with its inverse
    for (a, b), jm in fiber.J.items():
        jinv = mat_inverse(jm)
        rings.setdefault(lcm(jm._n, jinv._n), []).append((a, b, jm, jinv))
    for blocks in rings.values():
        values = [x for *_, jm, jinv in blocks for m in (jm, jinv) for x in m.entries if x]
        D, M, low, high = packing(values, [(max(max(N[a][b]) for a, b, *_ in blocks), 2)])
        sums: dict = {}
        for a, b, jm, jinv in blocks:
            size, db = jm.rows, d[b]
            # column s of J^-1 with each row t = (i1, k1) of a (x) b read as
            # the offsets of row i1 in block a and of row k1 in block b; row
            # s of J with each column u read as (j1, l1)
            jcols = [
                [(offs[a] + t // db * d[a], offs[b] + t % db * db, low(x)) for t, x in enumerate(jinv.entries[s::size]) if x]
                for s in range(size)
            ]
            jrows = [[(*divmod(u, db), low(y)) for u, y in enumerate(jm.row(s)) if y] for s in range(size)]
            for c, copies in enumerate(N[a][b]):
                for mu in range(copies):
                    o = _copy_offset(N[a][b], d, c, mu)
                    for i in range(d[c]):
                        for j in range(d[c]):
                            p = offs[c] + i * d[c] + j
                            for r1, r2, x in jcols[o + i]:
                                for j1, l1, y in jrows[o + j]:
                                    key = (p, r1 + j1, r2 + l1)
                                    sums[key] = sums.get(key, 0) + x * y
        memo: dict = {}
        for (p, q1, q2), v in sums.items():
            if not vanishes(v, M):
                if (cell := memo.get(v)) is None:
                    cell = memo[v] = high(v, D * D)
                planes[p][q1, q2] = cell
    return StructureTensor(len(planes), (sorted((q1, q2, v) for (q1, q2), v in acc.items()) for acc in planes))


def _require_hopf(hopf: HopfPresentation) -> None:
    """Run the full Hopf axiom suite on an assembled presentation; any
    failure raises ReconstructionAxiomFailure carrying the failing reports."""
    bad = [rep for rep in run_hopf_checks(hopf) if not rep.passed]
    if bad:
        raise ReconstructionAxiomFailure("assembled presentation fails the Hopf axioms", bad)


def zeta_modules(recon: ReconstructionResult) -> list:
    """Each simple's underlying space as a module over the rebuilt algebra:
    a basis element (b, k, l) acts on the a-th space by the matrix unit
    E_kl when b equals a and by zero otherwise."""
    out = []
    for a, da in enumerate(recon.dims):
        action = []
        for (b, k, l) in recon.basis:
            if b == a:
                action.append(_matrix_unit(da, k, l))
            else:
                action.append(Matrix.zeros(da, da))
        out.append(ModuleRep(da, tuple(action), recon.names[a]))
    return out


def transport_along(t: SliceMorphismData, eta) -> list:
    """Pull an endomorphism of the target functor back along a functor.

    eta is a block tuple over the target simples.  Each source block is
    tau_a^{-1} (sum over b ascending, mult[a][b] copies of eta_b) tau_a;
    functor composition corresponds to composing transports in the
    opposite order.  Raises ShapeError when tau sizes do not match the
    realized decompositions.
    """
    eta = list(eta)
    out = []
    for a, row in enumerate(t.mult):
        if len(row) != len(eta):
            raise ShapeError(f"multiplicity row {a} covers {len(row)} simples, eta has {len(eta)}")
        blocks = []
        for b, m in enumerate(row):
            blocks.extend([eta[b]] * m)
        mid = block_diag(blocks) if blocks else Matrix.zeros(0, 0)
        if mid.rows != t.tau[a].rows:
            raise ShapeError(
                f"decomposition of source space {a} has size {mid.rows}, not {t.tau[a].rows}"
            )
        out.append(mat_inverse(t.tau[a]) * (mid * t.tau[a]))
    return out


def transport_matrix(t: SliceMorphismData, dims_in) -> Matrix:
    """The matrix of transport_along over the matrix unit bases: rows are
    indexed by the source layout, columns by the target layout."""
    dims_out = tuple(m.rows for m in t.tau)
    n_out = sum(x * x for x in dims_out)
    offs_out = endf_offsets(dims_out)
    cols = []
    for (b, k, l) in endf_basis(dims_in):
        eta = [
            _matrix_unit(dims_in[bb], k, l) if bb == b else Matrix.zeros(dims_in[bb], dims_in[bb])
            for bb in range(len(dims_in))
        ]
        blocks = transport_along(t, eta)
        col = [ZERO] * n_out
        for a, da in enumerate(dims_out):
            blk = blocks[a]
            for i in range(da):
                for j in range(da):
                    v = blk.at(i, j)
                    if v:
                        col[offs_out[a] + i * da + j] = v
        cols.append(col)
    n_in = sum(x * x for x in dims_in)
    return Matrix.from_rows(cols).transpose() if cols else Matrix.zeros(n_out, n_in)
