"""Stock examples: group algebras, function algebras, doubles, pointed
categories, and the module families that exhibit them.

Basis orders are fixed by the generating group tables: K[G] on group
elements, Fun(G) on point masses, D(G) on pairs (h, g) at index h*|G|+g.
"""

from __future__ import annotations

from itertools import product

from .errors import NotACocycle, ShapeError
from .fusion import FiberData, FusionSkeleton
from .groups import (
    GroupTable,
    cyclic_group,
    direct_product,
    perm_parity,
    s4_to_s3_quotient,
    standard_rep_matrix,
    symmetric_group,
)
from .hopf import AlgebraPresentation, HopfPresentation, StructureTensor
from .matrices import Matrix
from .repcat import ModuleRep
from .scalars import ONE, ZERO, packing, sc, vanishes


def gen_group_algebra(g: GroupTable) -> HopfPresentation:
    """K[G]: grouplike basis, S by inversion."""
    n = g.order
    mult = StructureTensor(n, ([(j, g.mul(i, j), ONE) for j in range(n)] for i in range(n)))
    unit = [ONE if i == 0 else ZERO for i in range(n)]
    comult = StructureTensor(n, ([(i, i, ONE)] for i in range(n)))
    counit = [ONE] * n
    return HopfPresentation(AlgebraPresentation(n, mult, unit), comult, counit, _inversion(g))


def gen_function_algebra(g: GroupTable) -> HopfPresentation:
    """Fun(G): point mass basis, comultiplication by convolution splitting."""
    n = g.order
    inv = [g.inv(a) for a in range(n)]
    mult = StructureTensor(n, ([(i, i, ONE)] for i in range(n)))
    unit = [ONE] * n
    # delta_i splits over the pairs (a, b) with ab = i, that is b = a^-1 i
    comult = StructureTensor(n, ([(a, g.mul(inv[a], i), ONE) for a in range(n)] for i in range(n)))
    counit = [ONE if i == 0 else ZERO for i in range(n)]
    return HopfPresentation(AlgebraPresentation(n, mult, unit), comult, counit, _inversion(g))


def _inversion(g: GroupTable) -> Matrix:
    """The permutation matrix of g -> g^-1 on the group's basis."""
    inv = [g.inv(i) for i in range(g.order)]
    return Matrix(g.order, g.order, [ONE if j == x else ZERO for j in range(g.order) for x in inv])


def gen_drinfeld_double(g: GroupTable) -> HopfPresentation:
    """D(G) on basis (h, gr) at index h*|G|+gr.

    (d_h x a)(d_h' x b) = [h = a h' a^{-1}] d_h x ab
    Delta(d_h x a)      = sum over h1 h2 = h of (d_h1 x a)(x)(d_h2 x a)
    S(d_h x a)          = d_{a^{-1} h^{-1} a} x a^{-1}
    """
    n = g.order
    dim = n * n
    inv = [g.inv(a) for a in range(n)]

    def idx(h, a):
        return h * n + a

    # the one h' with h = a h' a^-1 is a^-1 h a
    mult = StructureTensor(dim, (
        [(idx(g.mul(g.mul(inv[a], h), a), b), idx(h, g.mul(a, b)), ONE) for b in range(n)]
        for h in range(n) for a in range(n)
    ))
    unit = [ZERO] * dim
    for h in range(n):
        unit[idx(h, 0)] = ONE
    # the one h2 with h1 h2 = h is h1^-1 h
    comult = StructureTensor(dim, (
        [(idx(h1, a), idx(g.mul(inv[h1], h), a), ONE) for h1 in range(n)]
        for h in range(n) for a in range(n)
    ))
    counit = [ZERO] * dim
    for a in range(n):
        counit[idx(0, a)] = ONE
    s = [[ZERO] * dim for _ in range(dim)]
    for h in range(n):
        for a in range(n):
            ai = inv[a]
            hi = g.conjugate(ai, inv[h])
            s[idx(hi, ai)][idx(h, a)] = ONE
    return HopfPresentation(
        AlgebraPresentation(dim, mult, unit), comult, counit, Matrix.from_rows(s)
    )


# -- pointed categories ------------------------------------------------------

def _omega_lookup(g: GroupTable, omega):
    if omega is None:
        return lambda a, b, c: ONE
    if callable(omega):
        return lambda a, b, c: sc(omega(a, b, c))

    def look(a, b, c):
        if (a, b, c) not in omega:
            raise ShapeError(f"omega has no value at {(a, b, c)}")
        return sc(omega[a, b, c])

    return look


def gen_pointed_category(g: GroupTable, omega=None) -> FusionSkeleton:
    """Simples indexed by group elements, fusion by the group law, and a
    1x1 recoordinatization omega(a,b,c) wherever d = abc.

    omega must be normalized (1 on any unit slot) and a cocycle
        omega(ab,c,d) omega(a,b,cd) = omega(a,b,c) omega(a,bc,d) omega(b,c,d);
    otherwise NotACocycle is raised with the witness tuple.
    """
    n = g.order
    lookup = _omega_lookup(g, omega)
    w = {t: lookup(*t) for t in product(range(n), repeat=3)}
    for t, x in w.items():
        if 0 in t and x != ONE:
            raise NotACocycle("omega is not normalized", t)
    # decided in the ring of scalars.packing, as verify_pentagon does: the
    # left side has degree 2 and meets the right side of degree 3 once
    # scaled by D, so each side is one product of three factors.  A
    # normalized omega meets the identity at any 0 slot (its two sides
    # then hold the same factors), so only the quadruples without one are
    # decided, and the first failing one is the first over all n^4.
    D, M, low, _ = packing(list(w.values()), [(1, 3)] * 2)
    lw = {t: low(x) for t, x in w.items()}
    m = g.mul
    for a, b, c, d in product(range(1, n), repeat=4):
        if not vanishes(lw[m(a, b), c, d] * lw[a, b, m(c, d)] * D - lw[a, b, c] * lw[a, m(b, c), d] * lw[b, c, d], M):
            raise NotACocycle("omega fails the cocycle identity", (a, b, c, d))

    fusion = [[[1 if g.mul(a, b) == c else 0 for c in range(n)] for b in range(n)] for a in range(n)]
    fmat = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                fmat[(a, b, c, g.mul(g.mul(a, b), c))] = Matrix(1, 1, [w[a, b, c]])
    names = tuple(f"g{i}" for i in range(n))
    return FusionSkeleton(
        rank=n,
        fusion=fusion,
        dual=tuple(g.inv(a) for a in range(n)),
        F=fmat,
        unit=0,
        names=names,
    )


def gen_pointed_fiber(g: GroupTable, iota=None) -> FiberData:
    """One dimensional fibers with every J block the scalar iota; matches
    the trivial-omega pointed category for any nonzero iota."""
    n = g.order
    i = ONE if iota is None else sc(iota)
    j = {(a, b): Matrix(1, 1, [i]) for a in range(n) for b in range(n)}
    return FiberData(dims=(1,) * n, J=j, iota=i)


# -- module families ---------------------------------------------------------

def _one_dim(vals, name: str) -> ModuleRep:
    return ModuleRep(1, tuple(Matrix(1, 1, [sc(v)]) for v in vals), name)


def modules_elementary_abelian(g: GroupTable, bits: int) -> list:
    """Characters of an elementary abelian 2-group whose element index is
    the binary word of its bits (the direct product indexing)."""
    n = g.order
    if n != 1 << bits:
        raise ShapeError(f"group of order {n} is not a product of {bits} copies of Z2")
    out = []
    for s in range(n):
        vals = []
        for t in range(n):
            dot = bin(s & t).count("1") & 1
            vals.append(-1 if dot else 1)
        out.append(_one_dim(vals, f"chi{s}"))
    return out


def _perm_modules(g: GroupTable) -> list:
    elems = g.elements
    if not elems:
        raise ValueError(f"{g.name} carries no permutations: needs a symmetric group table")
    triv = _one_dim([1] * g.order, "triv")
    sgn = _one_dim([perm_parity(p) for p in elems], "sgn")
    std = ModuleRep(
        len(elems[0]) - 1,
        tuple(Matrix.from_rows([[sc(x) for x in row] for row in standard_rep_matrix(p)]) for p in elems),
        "std",
    )
    return [triv, sgn, std]


def modules_s3() -> list:
    return _perm_modules(symmetric_group(3))


def modules_s4() -> list:
    g = symmetric_group(4)
    triv, sgn, std = _perm_modules(g)
    sgnstd = ModuleRep(
        3,
        tuple(sgn.action[i].at(0, 0) * std.action[i] for i in range(g.order)),
        "sgn(x)std",
    )
    two = ModuleRep(
        2,
        tuple(
            Matrix.from_rows(
                [[sc(x) for x in row] for row in standard_rep_matrix(s4_to_s3_quotient(p))]
            )
            for p in g.elements
        ),
        "two",
    )
    return [triv, sgn, two, std, sgnstd]


def modules_function_algebra(g: GroupTable) -> list:
    """Evaluation at each point: |G| one dimensional modules over Fun(G)."""
    out = []
    for x in range(g.order):
        out.append(_one_dim([1 if i == x else 0 for i in range(g.order)], f"ev{x}"))
    return out


def modules_double_z2() -> list:
    """The four characters of D(Z2): (d_h x a) acts by [h = h0] chi(a)."""
    out = []
    for h0 in range(2):
        for chi in range(2):
            vals = []
            for h in range(2):
                for a in range(2):
                    v = 0
                    if h == h0:
                        v = -1 if (chi and a) else 1
                    vals.append(v)
            out.append(_one_dim(vals, f"(h{h0},chi{chi})"))
    return out


# -- registry ----------------------------------------------------------------

def _z2z2():
    return direct_product(cyclic_group(2), cyclic_group(2))


def _omega_z2_nontrivial(a, b, c):
    return sc(-1) if a == b == c == 1 else ONE


EXAMPLES = {
    "kz2": ("hopf", lambda: gen_group_algebra(cyclic_group(2))),
    "kz2z2": ("hopf", lambda: gen_group_algebra(_z2z2())),
    "kz4": ("hopf", lambda: gen_group_algebra(cyclic_group(4))),
    "ks3": ("hopf", lambda: gen_group_algebra(symmetric_group(3))),
    "ks4": ("hopf", lambda: gen_group_algebra(symmetric_group(4))),
    "fun-z2": ("hopf", lambda: gen_function_algebra(cyclic_group(2))),
    "fun-s3": ("hopf", lambda: gen_function_algebra(symmetric_group(3))),
    "dz2": ("hopf", lambda: gen_drinfeld_double(cyclic_group(2))),
    "ds3": ("hopf", lambda: gen_drinfeld_double(symmetric_group(3))),
    "vec-z2": ("fusion", lambda: gen_pointed_category(cyclic_group(2))),
    "vec-z2-omega": (
        "fusion",
        lambda: gen_pointed_category(cyclic_group(2), _omega_z2_nontrivial),
    ),
    "vec-z4": ("fusion", lambda: gen_pointed_category(cyclic_group(4))),
    "vec-z2-fiber": ("fiber", lambda: gen_pointed_fiber(cyclic_group(2))),
    "vec-z2-fiber-iota2": ("fiber", lambda: gen_pointed_fiber(cyclic_group(2), 2)),
    "kz2-modules": ("modules", lambda: modules_elementary_abelian(cyclic_group(2), 1)),
    "kz2z2-modules": ("modules", lambda: modules_elementary_abelian(_z2z2(), 2)),
    "ks3-modules": ("modules", modules_s3),
    "ks4-modules": ("modules", modules_s4),
    "fun-z2-modules": ("modules", lambda: modules_function_algebra(cyclic_group(2))),
    "fun-s3-modules": ("modules", lambda: modules_function_algebra(symmetric_group(3))),
    "dz2-modules": ("modules", modules_double_z2),
    "z2-group": ("group", lambda: cyclic_group(2)),
    "z4-group": ("group", lambda: cyclic_group(4)),
    "z2z2-group": ("group", _z2z2),
    "s3-group": ("group", lambda: symmetric_group(3)),
    "s4-group": ("group", lambda: symmetric_group(4)),
}
