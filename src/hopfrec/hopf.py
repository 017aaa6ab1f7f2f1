"""Finite dimensional algebra and Hopf algebra presentations by structure
tensors, with exact axiom checkers.

Conventions, fixed once for the whole package:
  e_i * e_j     = sum_k mult[i][j][k] e_k
  Delta(e_i)    = sum_{j,k} comult[i][j][k] e_j (x) e_k
  S(e_i)        = sum_j antipode[j][i] e_j   (columns are images)
  unit, counit  = coefficient sequences of length dim

Checkers return a CheckReport listing every failing index tuple with both
sides of the identity; they never raise on honest axiom violations.

Tensors are stored dense.  The first check of a presentation lowers it to
sparse views of its nonzero entries, cached on the instance and shared by
every checker after it.  When every entry is rational, D is the lcm of all
their denominators and each entry x is held as the int D*x.  A side of an
identity that sums products of k entries then holds D^k times its value,
so sides of degrees k < l compare after the lower one is scaled by
D^(l-k); constants such as 1 have degree 0.  A failing side of degree l is
rendered as the rational v / D^l, the Scalar it stands for, so a report
reads the same on either path.  When some entry has conductor > 1 the
views keep the Scalars, D = 1, and nothing is scaled.

check_hopf_morphism meets three lowerings: the source's views at Ds, the
target's at Dd, and the columns of the map at Dm.  Each side of an identity
carries its own scale, the product of the D of its factors: multiplicative
Ds*Dm against Dm^2*Dd, unit Ds*Dm against Dd, comultiplicative Ds*Dm^2
against Dm*Dd, counit Ds against Dm*Dd.  Two sides compare after each is
multiplied by the other's scale, and a failing side is rendered at its own.
The map is lowered whenever it is rational, and each presentation enters
with its views as they are; a product with a Scalar factor is a Scalar,
and a Scalar side renders as its value divided by its scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ShapeError
from .matrices import Matrix, lowering
from .reports import CheckReport
from .scalars import ZERO, Scalar, sc


def _tensor3(data, n: int):
    t = tuple(tuple(tuple(sc(x) for x in row) for row in plane) for plane in data)
    if len(t) != n or any(len(p) != n or any(len(r) != n for r in p) for p in t):
        raise ShapeError(f"structure tensor is not {n}x{n}x{n}")
    return t


def _vector(data, n: int):
    v = tuple(sc(x) for x in data)
    if len(v) != n:
        raise ShapeError(f"coefficient sequence has length {len(v)}, expected {n}")
    return v


@dataclass(frozen=True)
class AlgebraPresentation:
    dim: int
    mult: tuple  # mult[i][j][k]
    unit: tuple  # length dim

    def __post_init__(self):
        object.__setattr__(self, "mult", _tensor3(self.mult, self.dim))
        object.__setattr__(self, "unit", _vector(self.unit, self.dim))

    @cached_property
    def _views(self) -> "_Views":
        return _Views(self.mult, self.unit)


@dataclass(frozen=True)
class HopfPresentation:
    alg: AlgebraPresentation
    comult: tuple  # comult[i][j][k]
    counit: tuple  # length dim
    antipode: Matrix  # dim x dim

    def __post_init__(self):
        n = self.alg.dim
        object.__setattr__(self, "comult", _tensor3(self.comult, n))
        object.__setattr__(self, "counit", _vector(self.counit, n))
        if not isinstance(self.antipode, Matrix) or self.antipode.rows != n or self.antipode.cols != n:
            raise ShapeError(f"antipode must be a {n}x{n} Matrix")

    @property
    def dim(self) -> int:
        return self.alg.dim

    @cached_property
    def _views(self) -> "_Views":
        return _Views(self.alg.mult, self.alg.unit, self.comult, self.counit, self.antipode)


# -- sparse views ---------------------------------------------------------

class _Views:
    """A presentation's entries lowered once, as the module docstring says:
    m[i][j] lists (k, mult) and dl[i] lists (j, k, comult) over nonzero
    entries, s[i] lists (l, antipode[l][i]) over the nonzero entries of
    column i, and u and eps are dense."""

    def __init__(self, mult, unit, comult=(), counit=(), antipode=None):
        cols = antipode.transpose().to_rows() if antipode is not None else []
        self.m = [[[(k, x) for k, x in enumerate(row) if x] for row in plane] for plane in mult]
        self.u = list(unit)
        self.dl = [[(j, k, x) for j, row in enumerate(plane) for k, x in enumerate(row) if x] for plane in comult]
        self.eps = list(counit)
        self.s = [[(l, x) for l, x in enumerate(col) if x] for col in cols]
        self.D = 1
        nz = [x for plane in self.m for row in plane for _, x in row]
        nz += [x for plane in self.dl for *_, x in plane]
        nz += [x for col in self.s for _, x in col] + self.u + self.eps
        if any(x.conductor != 1 for x in nz):
            return
        self.D, low = lowering(nz)
        self.m = [[[(k, low(x)) for k, x in row] for row in plane] for plane in self.m]
        self.u = [low(x) for x in self.u]
        self.dl = [[(j, k, low(x)) for j, k, x in plane] for plane in self.dl]
        self.eps = [low(x) for x in self.eps]
        self.s = [[(l, low(x)) for l, x in col] for col in self.s]


def _acc(d: dict, key, val):
    cur = d.get(key)
    if cur is not None:
        val = cur + val
    if val:
        d[key] = val
    else:
        d.pop(key, None)


def _scaled(d: dict, f: int) -> dict:
    """A side raised by f = D^(l-k) to the degree of the side it meets."""
    return d if f == 1 else {k: v * f for k, v in d.items()}


def _value(v, scale: int = 1) -> Scalar:
    """The Scalar a view value of degree l stands for; scale is D^l."""
    return v / scale if type(v) is Scalar else Scalar.rational(v, scale)


def _render(d: dict, scale: int = 1) -> str:
    if not d:
        return "0"
    return " + ".join(f"({_value(v, scale)})e{k}" for k, v in sorted(d.items()))


def _compare(rep: CheckReport, check: str, index: tuple, lhs: dict, ls: int, rhs: dict, rs: int) -> None:
    """Record a failure unless side lhs of scale ls and side rhs of scale rs
    stand for the same value."""
    if _scaled(lhs, rs) != _scaled(rhs, ls):
        rep.add(check, index, _render(lhs, ls), _render(rhs, rs))


# -- checkers -------------------------------------------------------------

def check_algebra(a: AlgebraPresentation) -> CheckReport:
    """Associativity and the two unit laws, every basis index tuple."""
    n = a.dim
    rep = CheckReport("algebra")
    v = a._views
    m, u, D2 = v.m, v.u, v.D**2

    for i in range(n):
        for j in range(n):
            mij = m[i][j]
            for l in range(n):
                lhs: dict = {}
                for k, c in mij:
                    for p, d in m[k][l]:
                        _acc(lhs, p, c * d)
                rhs: dict = {}
                for k, c in m[j][l]:
                    for p, d in m[i][k]:
                        _acc(rhs, p, c * d)
                if lhs != rhs:
                    rep.add("associativity", (i, j, l), _render(lhs, D2), _render(rhs, D2))

    for i in range(n):
        left: dict = {}
        right: dict = {}
        for j in range(n):
            if u[j]:
                for k, c in m[j][i]:
                    _acc(left, k, u[j] * c)
                for k, c in m[i][j]:
                    _acc(right, k, u[j] * c)
        want = _scaled({i: 1}, D2)
        if left != want:
            rep.add("left-unit", (i,), _render(left, D2), _render(want, D2))
        if right != want:
            rep.add("right-unit", (i,), _render(right, D2), _render(want, D2))
    return rep


def check_bialgebra(h: HopfPresentation) -> CheckReport:
    """Coassociativity, counit laws, and compatibility of Delta, counit
    with multiplication and unit."""
    n = h.dim
    rep = CheckReport("bialgebra")
    v = h._views
    m, dl, eps, u = v.m, v.dl, v.eps, v.u
    D2, D4 = v.D**2, v.D**4

    for i in range(n):
        lhs: dict = {}
        rhs: dict = {}
        for j, k, c in dl[i]:
            for p, q, d in dl[j]:
                _acc(lhs, (p, q, k), c * d)
            for p, q, d in dl[k]:
                _acc(rhs, (j, p, q), c * d)
        if lhs != rhs:
            rep.add("coassociativity", (i,), _render(lhs, D2), _render(rhs, D2))

    for i in range(n):
        left: dict = {}
        right: dict = {}
        for j, k, c in dl[i]:
            if eps[j]:
                _acc(left, k, eps[j] * c)
            if eps[k]:
                _acc(right, j, eps[k] * c)
        want = _scaled({i: 1}, D2)
        if left != want:
            rep.add("left-counit", (i,), _render(left, D2), _render(want, D2))
        if right != want:
            rep.add("right-counit", (i,), _render(right, D2), _render(want, D2))

    # group each Delta by its first tensor leg and precompute which first
    # legs can multiply, so the product loop skips dead branches wholesale
    targets = [[a2 for a2 in range(n) if m[a1][a2]] for a1 in range(n)]
    by_first = []
    for i in range(n):
        grp: dict = {}
        for j, k, c in dl[i]:
            grp.setdefault(j, []).append((k, c))
        by_first.append(grp)

    for i in range(n):
        for j in range(n):
            lhs = {}
            for k, c in m[i][j]:
                for p, q, d in dl[k]:
                    _acc(lhs, (p, q), c * d)
            lhs = _scaled(lhs, D2)
            rhs = {}
            grp_j = by_first[j]
            for a1, b1, c1 in dl[i]:
                row = m[a1]
                mb = m[b1]
                for a2 in targets[a1]:
                    second = grp_j.get(a2)
                    if not second:
                        continue
                    prods = row[a2]
                    for b2, c2 in second:
                        t2 = mb[b2]
                        if not t2:
                            continue
                        c12 = c1 * c2
                        for p, d1 in prods:
                            for q, d2 in t2:
                                _acc(rhs, (p, q), c12 * d1 * d2)
            if lhs != rhs:
                rep.add("comult-multiplicative", (i, j), _render(lhs, D4), _render(rhs, D4))

            e_lhs = sum(c * eps[k] for k, c in m[i][j])
            e_rhs = eps[i] * eps[j]
            if e_lhs != e_rhs:
                rep.add("counit-multiplicative", (i, j), _value(e_lhs, D2), _value(e_rhs, D2))

    du: dict = {}
    for i in range(n):
        if u[i]:
            for j, k, c in dl[i]:
                _acc(du, (j, k), u[i] * c)
    uu: dict = {}
    for j in range(n):
        for k in range(n):
            x = u[j] * u[k]
            if x:
                uu[(j, k)] = x
    if du != uu:
        rep.add("comult-of-unit", (), _render(du, D2), _render(uu, D2))

    eu = sum(u[i] * eps[i] for i in range(n))
    if eu != D2:
        rep.add("counit-of-unit", (), _value(eu, D2), _value(D2, D2))
    return rep


def check_antipode(h: HopfPresentation) -> CheckReport:
    """Both antipode identities m(S x id)Delta = u eps = m(id x S)Delta.

    Pass or fail is decided by those two alone.  The report also carries
    informational flags: whether S is an algebra antihomomorphism, a
    coalgebra antihomomorphism, and an involution.
    """
    n = h.dim
    rep = CheckReport("antipode")
    v = h._views
    m, dl, scol, D, D3 = v.m, v.dl, v.s, v.D, v.D**3

    for i in range(n):
        left: dict = {}
        right: dict = {}
        for j, k, c in dl[i]:
            for l, sl in scol[j]:
                for p, d in m[l][k]:
                    _acc(left, p, c * sl * d)
            for l, sl in scol[k]:
                for p, d in m[j][l]:
                    _acc(right, p, c * sl * d)
        want: dict = {}
        for p in range(n):
            x = v.u[p] * v.eps[i]
            if x:
                want[p] = x
        want = _scaled(want, D)
        if left != want:
            rep.add("left-snake", (i,), _render(left, D3), _render(want, D3))
        if right != want:
            rep.add("right-snake", (i,), _render(right, D3), _render(want, D3))

    antihom = True
    for i in range(n):
        for j in range(n):
            lhs: dict = {}
            for k, c in m[i][j]:
                for l, sl in scol[k]:
                    _acc(lhs, l, c * sl)
            rhs: dict = {}
            for l, sl in scol[j]:
                for p, sp in scol[i]:
                    for q, d in m[l][p]:
                        _acc(rhs, q, sl * sp * d)
            if _scaled(lhs, D) != rhs:
                antihom = False
                break
        if not antihom:
            break

    co_antihom = True
    for i in range(n):
        lhs = {}
        for l, sl in scol[i]:
            for p, q, c in dl[l]:
                _acc(lhs, (p, q), sl * c)
        rhs = {}
        for j, k, c in dl[i]:
            for p, sp in scol[k]:
                for q, sq in scol[j]:
                    _acc(rhs, (p, q), c * sp * sq)
        if _scaled(lhs, D) != rhs:
            co_antihom = False
            break

    rep.flags["algebra-antihomomorphism"] = antihom
    rep.flags["coalgebra-antihomomorphism"] = co_antihom
    rep.flags["involutive"] = h.antipode * h.antipode == Matrix.identity(n)
    return rep


def run_hopf_checks(h: HopfPresentation) -> list[CheckReport]:
    """The full axiom suite in dependency order."""
    return [check_algebra(h.alg), check_bialgebra(h), check_antipode(h)]


def check_hopf_morphism(src: HopfPresentation, dst: HopfPresentation, m: Matrix) -> CheckReport:
    """m, whose columns are the images of the source basis, respects every
    piece of structure.  Bijectivity is recorded as a flag so callers can
    decide whether they demand an isomorphism."""
    if m.rows != dst.dim or m.cols != src.dim:
        raise ShapeError(f"morphism matrix must be {dst.dim}x{src.dim}")
    rep = CheckReport("hopf-morphism")
    ns, nd = src.dim, dst.dim
    vs, vd = src._views, dst._views
    mt = m.transpose()
    if m._n == 1:
        dm, cols = mt._lowered()
    else:
        dm = 1
        cols = [[(p, x) for p, x in enumerate(mt.row(i)) if x] for i in range(ns)]
    ds, dd = vs.D, vd.D

    for i in range(ns):
        for j in range(ns):
            lhs: dict = {}
            for k, c in vs.m[i][j]:
                for p, x in cols[k]:
                    _acc(lhs, p, c * x)
            rhs: dict = {}
            for p, ci in cols[i]:
                for q, cj in cols[j]:
                    for t, d in vd.m[p][q]:
                        _acc(rhs, t, ci * cj * d)
            _compare(rep, "morphism-multiplicative", (i, j), lhs, ds * dm, rhs, dm * dm * dd)

    img_u: dict = {}
    for i, c in enumerate(vs.u):
        if c:
            for p, x in cols[i]:
                _acc(img_u, p, c * x)
    want_u = {p: x for p, x in enumerate(vd.u) if x}
    _compare(rep, "morphism-unit", (), img_u, ds * dm, want_u, dd)

    for i in range(ns):
        lhs = {}
        for j, k, c in vs.dl[i]:
            for p, cj in cols[j]:
                for q, ck in cols[k]:
                    _acc(lhs, (p, q), c * cj * ck)
        rhs = {}
        for p, ci in cols[i]:
            for a1, b1, d in vd.dl[p]:
                _acc(rhs, (a1, b1), ci * d)
        _compare(rep, "morphism-comultiplicative", (i,), lhs, ds * dm * dm, rhs, dm * dd)

        e_lhs = vs.eps[i]
        e_rhs = sum(x * vd.eps[p] for p, x in cols[i])
        if e_lhs * dm * dd != e_rhs * ds:
            rep.add("morphism-counit", (i,), _value(e_lhs, ds), _value(e_rhs, dm * dd))

    ms = m * src.antipode
    sm = dst.antipode * m
    if ms != sm:
        for i in range(ns):
            li = [ms.at(p, i) for p in range(nd)]
            ri = [sm.at(p, i) for p in range(nd)]
            if li != ri:
                rep.add(
                    "morphism-antipode",
                    (i,),
                    _render({p: x for p, x in enumerate(li) if x}),
                    _render({p: x for p, x in enumerate(ri) if x}),
                )

    rep.flags["bijective"] = m.rows == m.cols and m.rank() == m.rows
    return rep


def tensor_hopf(h1: HopfPresentation, h2: HopfPresentation) -> HopfPresentation:
    """Tensor product Hopf algebra on basis e_i (x) f_j, index i*dim2 + j."""
    n1, n2 = h1.dim, h2.dim
    n = n1 * n2

    def idx(i, j):
        return i * n2 + j

    mult = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i1 in range(n1):
        for j1 in range(n1):
            row1 = h1.alg.mult[i1][j1]
            for k1 in range(n1):
                c1 = row1[k1]
                if not c1:
                    continue
                for i2 in range(n2):
                    for j2 in range(n2):
                        row2 = h2.alg.mult[i2][j2]
                        for k2 in range(n2):
                            c2 = row2[k2]
                            if c2:
                                mult[idx(i1, i2)][idx(j1, j2)][idx(k1, k2)] = c1 * c2

    unit = [h1.alg.unit[i] * h2.alg.unit[j] for i in range(n1) for j in range(n2)]

    comult = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i1 in range(n1):
        for a1 in range(n1):
            for b1 in range(n1):
                c1 = h1.comult[i1][a1][b1]
                if not c1:
                    continue
                for i2 in range(n2):
                    for a2 in range(n2):
                        for b2 in range(n2):
                            c2 = h2.comult[i2][a2][b2]
                            if c2:
                                comult[idx(i1, i2)][idx(a1, a2)][idx(b1, b2)] = c1 * c2

    counit = [h1.counit[i] * h2.counit[j] for i in range(n1) for j in range(n2)]
    antipode = h1.antipode.kron(h2.antipode)
    return HopfPresentation(AlgebraPresentation(n, mult, unit), comult, counit, antipode)
