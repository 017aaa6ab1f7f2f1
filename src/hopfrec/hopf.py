"""Finite dimensional algebra and Hopf algebra presentations by structure
tensors, with exact axiom checkers.

Conventions, fixed once for the whole package:
  e_i * e_j     = sum_k mult[i][j][k] e_k
  Delta(e_i)    = sum_{j,k} comult[i][j][k] e_j (x) e_k
  S(e_i)        = sum_j antipode[j][i] e_j   (columns are images)
  unit, counit  = coefficient sequences of length dim

Checkers return a CheckReport listing every failing index tuple with both
sides of the identity; they never raise on honest axiom violations.

Structure tensors are held as their nonzero entries (`StructureTensor`),
plane by plane in (j, k) order, as the builders and the loader produce
them; t[i][j][k] and iteration over planes derive the dense form on each
call, and no reader in the package asks for it.  The first check of a
presentation lowers it to views of its nonzero entries, cached on the
instance and shared by every checker after it, in the ring of
`scalars.packing`: each entry x is
held as the int D*x, packed at x -> B when some entry has conductor > 1.
A side of an identity that sums products of k entries then holds D^k
times its value, so sides of degrees k < l compare after the lower one is
scaled by D^(l-k); constants such as 1 have degree 0.  Two sides agree
as `scalars.same_sides` decides; every side sums at most n^4 products of
at most four factors, which fixes B.
A failing side of degree l is rendered from the ints that decided it:
each cell v is the Scalar that the ring's `high` reads back at scale D^l,
the rational v / D^l on conductor 1, so every cell of a report is printed
at the ring's conductor.

A side is a vector over index tuples, laid out flat: the cell (p, q) of
an n x n side sits at offset p*n + q, and (p, q, k) of an n x n x n side
at (p*n + q)*n + k.  The views hold each nonzero entry's offset, so every
side accumulates with the one body store[o] += x.  The store is a dense
[0] * cells list on a dense presentation and a defaultdict(int) keyed by
offset on a sparse one.  Associativity and coassociativity, the checks
whose sides span the most cells, make about N^2/n additions per side over
all their index tuples when the structure tensors hold N nonzero entries,
against n^4 cells of dense stores; a presentation is dense when N^2 >= n^5,
that is when the additions reach the cells.  Dense sides compare as lists
and keyed sides after dropping cancelled zeros.  Only a failing side maps
its offsets back to index tuples, in the order of the tuples.

check_hopf_morphism lowers the map and both presentations into one ring
of `scalars.packing` at every conductor, so a side that sums products of
k lowered values holds D^k times its value: multiplicative D^2 against
D^3, unit D^2 against D, comultiplicative D^3 against D^2, counit D
against D^2, and antipode, m S_src against S_dst m, D^2 on both sides.
The lower side is scaled to the higher, every side is at most
max(ns, nd)^2 products of three factors, and a failing side is rendered
from that ring at its own scale.  Its sides span target cells and use
the target's store; no Matrix product is made.

Generators.  Once a map f into an algebra has f(1) = 1, the x with
f(xy) = f(x)f(y) for every y form a unital subalgebra, by associativity;
so f is multiplicative as soon as that identity holds at x in a set of
generators.  `AlgebraPresentation._gens` is such a set of basis indices,
closed over sets of indices (see `_generators`), and None unless
check_algebra has passed: its verdict is kept by the sweep that ran, and
the sweep runs once when none has.  The closure reads only the positions
of nonzero products and the unit's support, off the presentation's own
views.
check_bialgebra first checks comult-of-unit and counit-of-unit, both
multiplicativities at (g, j), then coassociativity and both counit laws
at g, for g in the generators: once Delta and the counit are
multiplicative, both sides of those laws are algebra maps, which agree
wherever they agree on generators.  Any failure there runs the full
sweep, so a failing report lists every tuple in the same order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd

from .errors import ShapeError
from .matrices import Matrix
from .reports import CheckReport
from .scalars import ZERO, packing, same_sides, sc, vanishes


class StructureTensor:
    """An n x n x n structure tensor held as its nonzero entries: planes[i]
    lists (j, k, t[i][j][k]) over the nonzero cells of plane i in (j, k)
    order.  Entries are coerced by `sc`, zeros are dropped, and an index
    out of range or out of order raises ShapeError.  t[i][j][k], len(t)
    and iteration over planes and rows read the dense form that `plane`
    derives; the package itself walks `planes`."""

    __slots__ = ("n", "planes")

    def __init__(self, n: int, planes):
        planes = tuple(planes)
        if len(planes) != n:
            raise ShapeError(f"structure tensor is not {n}x{n}x{n}")
        out = []
        for p in planes:
            nz = []
            last = -1
            for j, k, x in p:
                if not (0 <= j < n and 0 <= k < n and j * n + k > last):
                    raise ShapeError(f"entry ({j}, {k}) is out of range or out of (j, k) order")
                last = j * n + k
                if x := sc(x):
                    nz.append((j, k, x))
            out.append(tuple(nz))
        self.n = n
        self.planes = tuple(out)

    def rows(self, i: int) -> list:
        """Plane i as n rows, row j listing (k, t[i][j][k]) over its nonzero cells."""
        rows = [[] for _ in range(self.n)]
        for j, k, x in self.planes[i]:
            rows[j].append((k, x))
        return rows

    def plane(self, i: int) -> tuple:
        """The dense plane i, ZERO in every absent cell, derived on each call."""
        n = self.n
        rows = [[ZERO] * n for _ in range(n)]
        for j, k, x in self.planes[i]:
            rows[j][k] = x
        return tuple(map(tuple, rows))

    def __getitem__(self, i: int) -> tuple:
        return self.plane(i)

    def __iter__(self):
        return (self.plane(i) for i in range(self.n))

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other):
        if not isinstance(other, StructureTensor):
            return NotImplemented
        return self.n == other.n and self.planes == other.planes

    def __repr__(self):
        return f"StructureTensor({self.n}, {sum(map(len, self.planes))} nonzeros)"


def _tensor3(data, n: int) -> StructureTensor:
    """The one normalizer: a StructureTensor of dim n is kept, and dense
    nested input is scanned once for its nonzero cells."""
    if isinstance(data, StructureTensor):
        if data.n != n:
            raise ShapeError(f"structure tensor is not {n}x{n}x{n}")
        return data
    planes = [tuple(tuple(sc(x) for x in row) for row in plane) for plane in data]
    if len(planes) != n or any(len(p) != n or any(len(r) != n for r in p) for p in planes):
        raise ShapeError(f"structure tensor is not {n}x{n}x{n}")
    return StructureTensor(n, ([(j, k, x) for j, row in enumerate(p) for k, x in enumerate(row) if x] for p in planes))


def _vector(data, n: int):
    v = tuple(sc(x) for x in data)
    if len(v) != n:
        raise ShapeError(f"coefficient sequence has length {len(v)}, expected {n}")
    return v


@dataclass(frozen=True)
class AlgebraPresentation:
    dim: int
    mult: StructureTensor  # mult[i][j][k]; dense nested input is accepted
    unit: tuple  # length dim

    def __post_init__(self):
        object.__setattr__(self, "mult", _tensor3(self.mult, self.dim))
        object.__setattr__(self, "unit", _vector(self.unit, self.dim))

    @cached_property
    def _views(self) -> "_Views":
        return _Views(self)

    @cached_property
    def _gens(self) -> list | None:
        """Basis indices of generators, or None when the algebra fails
        check_algebra (see the module docstring)."""
        v = self._views
        if v.passed is None:
            check_algebra(self)
        return _generators(v) if v.passed else None


@dataclass(frozen=True)
class HopfPresentation:
    alg: AlgebraPresentation
    comult: StructureTensor  # comult[i][j][k]; dense nested input is accepted
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
        return _Views(self.alg, self.comult, self.counit, self.antipode)


# -- views ----------------------------------------------------------------

class _Views:
    """A presentation's entries lowered once, as the module docstring says,
    in `ring` (D, M, low, high): by default the presentation's own packing;
    sides compare by `scalars.same_sides` and render through high.
    `values` lists the Scalars lowered.
    m[i][j] lists (k, mult) and dl[i] lists (j, k, comult) over nonzero
    entries, s[i] lists (l, antipode[l][i]) over the nonzero entries of
    column i, and u and eps are dense.  Flat offsets over the nonzero
    entries of plane i: mt[i] lists (j*n, k, mult), dp[i] lists
    (j*n + k, comult) and dt[i] lists ((j*n + k)*n, comult).  m and dl are
    read off the stored nonzeros of mult and comult; nothing is scanned."""

    def __init__(self, alg: AlgebraPresentation, comult=None, counit=(), antipode=None, ring=None):
        n, mult = alg.dim, alg.mult
        cols = antipode.transpose().to_rows() if antipode is not None else []
        self.m = [mult.rows(i) for i in range(n)]
        self.u = list(alg.unit)
        self.dl = list(comult.planes) if comult is not None else []
        self.eps = list(counit)
        self.s = [[(l, x) for l, x in enumerate(col) if x] for col in cols]
        nz = [x for plane in self.m for row in plane for _, x in row]
        nz += [x for plane in self.dl for *_, x in plane]
        nnz = len(nz)
        nz += [x for col in self.s for _, x in col] + self.u + self.eps
        self.values = nz
        # a cell of any side of the checkers sums at most n^4 products of at
        # most four factors, the powers of D that scale it included
        self.D, self.M, low, self.high = ring or packing(nz, [(n**4, 4)] * 2)
        self.m = [[[(k, low(x)) for k, x in row] for row in plane] for plane in self.m]
        self.u = [low(x) for x in self.u]
        self.dl = [[(j, k, low(x)) for j, k, x in plane] for plane in self.dl]
        self.eps = [low(x) for x in self.eps]
        self.s = [[(l, low(x)) for l, x in col] for col in self.s]
        self.mt = [[(j * n, k, x) for j, row in enumerate(plane) for k, x in row] for plane in self.m]
        self.dp = [[(j * n + k, x) for j, k, x in plane] for plane in self.dl]
        self.dt = [[(o * n, x) for o, x in plane] for plane in self.dp]
        self.dense = nnz * nnz >= n**5
        self.passed = None  # check_algebra's verdict, once it has run

    def store(self, cells: int):
        """An empty side over `cells` flat offsets, in this presentation's store."""
        return [0] * cells if self.dense else defaultdict(int)

    def compare(self, rep: CheckReport, check: str, index: tuple, lhs, ls: int, rhs, rs: int, n=0, arity=1) -> None:
        """Record a failure unless side lhs of scale ls and side rhs of scale
        rs stand for the same value: each is multiplied by the other's scale
        over their gcd.  A failing side renders its cells as n^arity index
        tuples."""
        g = gcd(ls, rs)
        if not same_sides(_scaled(lhs, rs // g), _scaled(rhs, ls // g), self.M):
            rep.add(check, index, self.render(lhs, ls, n, arity), self.render(rhs, rs, n, arity))

    def render(self, side, scale: int, n: int, arity: int) -> str:
        """A side of scale `scale` as the sum of its nonzero cells, each the
        Scalar that high reads back, over n^arity index tuples."""
        cells = enumerate(side) if type(side) is list else sorted(side.items())
        terms = [f"({x})e{_cell(o, n, arity)}" for o, v in cells if v and (x := self.high(v, scale))]
        return " + ".join(terms) if terms else "0"


def _generators(v: _Views) -> list:
    """Generators of an associative unital algebra from its views, by
    closing a set of basis indices: k joins the set when a product of two
    members is a nonzero multiple of e_k alone, or when k is the last index
    of the unit's support still outside it; a product with several terms
    closes nothing.  Index i is a generator when it is outside the set at
    its turn, and then joins it.  Every index that joins lies in the
    subalgebra the generators generate, and every index joins, so they
    generate.  When every product of basis elements is a multiple of at
    most one basis element, the set spans that subalgebra beside K1, so i
    is a generator exactly when e_i lies outside the subalgebra that 1 and
    the indices before it generate: the greedy choice."""
    m, n = v.m, len(v.m)
    unit = {k for k, x in enumerate(v.u) if x}
    inside: set = set()
    gens = []

    def close(work):
        # with one index of the unit left outside, 1 puts its e_k inside
        while work or len(unit - inside) == 1:
            x = work.pop() if work else min(unit - inside)
            if x not in inside:
                inside.add(x)
                for y in inside:
                    work += [row[0][0] for row in (m[x][y], m[y][x]) if len(row) == 1]

    close([])
    for i in range(n):
        if i not in inside:
            gens.append(i)
            close([i])
    return gens


def _scaled(side, f: int):
    """A side multiplied by f, such as D^(l-k) to meet a side of degree l."""
    if f == 1:
        return side
    if type(side) is list:
        return [v * f for v in side]
    return {o: v * f for o, v in side.items()}


def _block(side, lo: int, size: int):
    """Cells lo .. lo+size-1 of a side, re-based to offset 0."""
    if type(side) is list:
        return side[lo : lo + size]
    return {o - lo: v for o, v in side.items() if lo <= o < lo + size}


def _cell(o: int, n: int, arity: int):
    """The index tuple at flat offset o of an n^arity side; an int for arity 1."""
    if arity == 1:
        return o
    return tuple(o // n ** (arity - 1 - t) % n for t in range(arity))


# -- checkers -------------------------------------------------------------

def check_algebra(a: AlgebraPresentation) -> CheckReport:
    """Associativity and the two unit laws, every basis index tuple."""
    rep = _algebra(a._views)
    a._views.passed = rep.passed
    return rep


def _algebra(v: _Views) -> CheckReport:
    n = len(v.m)
    rep = CheckReport("algebra")
    m, mt, u, D2, store = v.m, v.mt, v.u, v.D**2, v.store

    for i in range(n):
        mi = m[i]
        for j in range(n):
            # (e_i e_j) e_l and e_i (e_j e_l) for every l, over the cells (l, p)
            lhs = store(n * n)
            for k, c in mi[j]:
                for o0, p, d in mt[k]:
                    lhs[o0 + p] += c * d
            rhs = store(n * n)
            for o0, k, c in mt[j]:
                for p, d in mi[k]:
                    rhs[o0 + p] += c * d
            if not same_sides(lhs, rhs, v.M):
                for l in range(n):
                    v.compare(rep, "associativity", (i, j, l), _block(lhs, l * n, n), D2, _block(rhs, l * n, n), D2)

    for i in range(n):
        left = store(n)
        right = store(n)
        for j in range(n):
            if u[j]:
                for k, c in m[j][i]:
                    left[k] += u[j] * c
                for k, c in m[i][j]:
                    right[k] += u[j] * c
        want = store(n)
        want[i] = 1
        v.compare(rep, "left-unit", (i,), left, D2, want, 1)
        v.compare(rep, "right-unit", (i,), right, D2, want, 1)
    return rep


def check_bialgebra(h: HopfPresentation) -> CheckReport:
    """Coassociativity, counit laws, and compatibility of Delta, counit
    with multiplication and unit.  Decided on the algebra's generators
    when they exist and everything passes there (see the module
    docstring); otherwise every index is checked."""
    gens = h.alg._gens
    if gens is not None:
        rep = _bialgebra_sweep(h._views, gens, True)
        if rep.passed:
            return rep
    return _bialgebra_sweep(h._views, range(h.dim), False)


def _bialgebra_sweep(v: _Views, rows, stop: bool) -> CheckReport:
    """check_bialgebra with coassociativity and the counit laws checked at
    e_i, and both multiplicativities at (e_i, e_j) for every j, for i in
    rows.  With stop, the unit checks run first, then the
    multiplicativities, and the sweep ends at its first failure; only its
    verdict counts."""
    n = len(v.m)
    nn = n * n
    rep = CheckReport("bialgebra")
    m, mt, dl, dp, dt, eps, u, store = v.m, v.mt, v.dl, v.dp, v.dt, v.eps, v.u, v.store
    D2, D4 = v.D**2, v.D**4

    def coassociativity(i):
        lhs = store(nn * n)
        rhs = store(nn * n)
        for j, k, c in dl[i]:
            for o, d in dt[j]:
                lhs[o + k] += c * d
            o0 = j * nn
            for o, d in dp[k]:
                rhs[o0 + o] += c * d
        v.compare(rep, "coassociativity", (i,), lhs, D2, rhs, D2, n, 3)

    def counit_laws(i):
        left = store(n)
        right = store(n)
        for j, k, c in dl[i]:
            if eps[j]:
                left[k] += eps[j] * c
            if eps[k]:
                right[j] += eps[k] * c
        want = store(n)
        want[i] = 1
        v.compare(rep, "left-counit", (i,), left, D2, want, 1)
        v.compare(rep, "right-counit", (i,), right, D2, want, 1)

    # by_first[a2][b2] lists (j*n*n, comult[j][a2][b2]), and targets[a1]
    # the a2 that a1 can multiply, so the product loop skips dead branches
    # wholesale
    targets = [[a2 for a2 in range(n) if m[a1][a2]] for a1 in range(n)]
    by_first: list = [{} for _ in range(n)]
    for j in range(n):
        for a2, b2, c2 in dl[j]:
            by_first[a2].setdefault(b2, []).append((j * nn, c2))

    def multiplicative(i):
        # Delta(e_i e_j) and Delta(e_i) Delta(e_j) for every j, over the
        # cells (j, p, q); the left side has degree 2 and is held at D^4
        lhs = store(nn * n)
        for o0, k, c in mt[i]:
            c = c * D2
            o0 *= n  # j*n*n
            for o, d in dp[k]:
                lhs[o0 + o] += c * d
        rhs = store(nn * n)
        for a1, b1, c1 in dl[i]:
            row = m[a1]
            mb = m[b1]
            for a2 in targets[a1]:
                prods = row[a2]
                for b2, seconds in by_first[a2].items():
                    t2 = mb[b2]
                    if not t2:
                        continue
                    for p, d1 in prods:
                        x1 = c1 * d1
                        for q, d2 in t2:
                            x = x1 * d2
                            o1 = p * n + q
                            for o0, c2 in seconds:
                                rhs[o0 + o1] += x * c2
        same = same_sides(lhs, rhs, v.M)
        for j in range(n):
            if not same:
                lj, rj = _block(lhs, j * nn, nn), _block(rhs, j * nn, nn)
                v.compare(rep, "comult-multiplicative", (i, j), lj, D4, rj, D4, n, 2)
            e_lhs = sum(c * eps[k] for k, c in m[i][j])
            e_rhs = eps[i] * eps[j]
            if not vanishes(e_lhs - e_rhs, v.M):
                rep.add("counit-multiplicative", (i, j), v.high(e_lhs, D2), v.high(e_rhs, D2))

    def unit_laws():
        du = store(nn)
        for i in range(n):
            if u[i]:
                for o, c in dp[i]:
                    du[o] += u[i] * c
        uu = store(nn)
        for j in range(n):
            for k in range(n):
                x = u[j] * u[k]
                if x:
                    uu[j * n + k] = x
        v.compare(rep, "comult-of-unit", (), du, D2, uu, D2, n, 2)

        eu = sum(u[i] * eps[i] for i in range(n))
        if not vanishes(eu - D2, v.M):
            rep.add("counit-of-unit", (), v.high(eu, D2), v.high(D2, D2))

    if stop:
        unit_laws()
        for sweep in (multiplicative, coassociativity, counit_laws):
            for i in rows:
                if not rep.passed:
                    return rep
                sweep(i)
        return rep
    for sweep in (coassociativity, counit_laws, multiplicative):
        for i in rows:
            sweep(i)
    unit_laws()
    return rep


def check_antipode(h: HopfPresentation) -> CheckReport:
    """Both antipode identities m(S x id)Delta = u eps = m(id x S)Delta.

    Pass or fail is decided by those two alone.  The report also carries
    informational flags: whether S is an algebra antihomomorphism, a
    coalgebra antihomomorphism, and an involution.
    """
    return _antipode(h, h._views)


def _antipode(h: HopfPresentation, v: _Views) -> CheckReport:
    n = h.dim
    rep = CheckReport("antipode")
    m, mt, dl, dp, scol, store = v.m, v.mt, v.dl, v.dp, v.s, v.store
    D, D2, D3 = v.D, v.D**2, v.D**3

    for i in range(n):
        left = store(n)
        right = store(n)
        for j, k, c in dl[i]:
            for l, sl in scol[j]:
                for p, d in m[l][k]:
                    left[p] += c * sl * d
            for l, sl in scol[k]:
                for p, d in m[j][l]:
                    right[p] += c * sl * d
        want = store(n)
        for p in range(n):
            x = v.u[p] * v.eps[i]
            if x:
                want[p] = x
        v.compare(rep, "left-snake", (i,), left, D3, want, D2)
        v.compare(rep, "right-snake", (i,), right, D3, want, D2)

    antihom = True
    for i in range(n):
        # S(e_i e_j) and S(e_j) S(e_i) for every j, over the cells (j, l)
        lhs = store(n * n)
        for o0, k, c in mt[i]:
            for l, sl in scol[k]:
                lhs[o0 + l] += c * sl
        rhs = store(n * n)
        for j in range(n):
            o0 = j * n
            for l, sl in scol[j]:
                for p, sp in scol[i]:
                    for q, d in m[l][p]:
                        rhs[o0 + q] += sl * sp * d
        if not same_sides(lhs, rhs, v.M, D):
            antihom = False
            break

    co_antihom = True
    for i in range(n):
        lhs = store(n * n)
        for l, sl in scol[i]:
            for o, c in dp[l]:
                lhs[o] += sl * c
        rhs = store(n * n)
        for j, k, c in dl[i]:
            for p, sp in scol[k]:
                x = c * sp
                o0 = p * n
                for q, sq in scol[j]:
                    rhs[o0 + q] += x * sq
        if not same_sides(lhs, rhs, v.M, D):
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
    decide whether they demand an isomorphism.  The sides are decided and
    rendered in one packed ring (see the module docstring)."""
    if m.rows != dst.dim or m.cols != src.dim:
        raise ShapeError(f"morphism matrix must be {dst.dim}x{src.dim}")
    # a cell of any side sums at most (the larger dim)^2 products of three factors
    ring = packing(src._views.values + dst._views.values + list(m.entries), [(max(m.rows, m.cols) ** 2, 3)] * 2)
    vs, vd = (_Views(h.alg, h.comult, h.counit, h.antipode, ring) for h in (src, dst))
    rep = _morphism(vs, vd, m, ring[2], ring[0])
    rep.flags["bijective"] = m.rows == m.cols and m.rank() == m.rows
    return rep


def _morphism(vs: _Views, vd: _Views, m: Matrix, low, D: int) -> CheckReport:
    """The multiplicative, unit, comultiplicative, counit and antipode laws
    of the map m from the presentation of views vs to that of vd, its
    entries lowered by low, all three in one ring of scale D."""
    rep = CheckReport("hopf-morphism")
    ns, nd = len(vs.m), len(vd.m)
    store = vd.store
    D2, D3 = D**2, D**3
    cols = [[(p, low(x)) for p, x in enumerate(m.entries[i::ns]) if x] for i in range(ns)]  # column i: (p, m[p, i])

    for i in range(ns):
        for j in range(ns):
            lhs = store(nd)
            for k, c in vs.m[i][j]:
                for p, x in cols[k]:
                    lhs[p] += c * x
            rhs = store(nd)
            for p, ci in cols[i]:
                for q, cj in cols[j]:
                    for t, d in vd.m[p][q]:
                        rhs[t] += ci * cj * d
            vd.compare(rep, "morphism-multiplicative", (i, j), lhs, D2, rhs, D3)

    img_u = store(nd)
    for i, c in enumerate(vs.u):
        if c:
            for p, x in cols[i]:
                img_u[p] += c * x
    want_u = vd.u if vd.dense else {p: x for p, x in enumerate(vd.u) if x}
    vd.compare(rep, "morphism-unit", (), img_u, D2, want_u, D)

    for i in range(ns):
        lhs = store(nd * nd)
        for j, k, c in vs.dl[i]:
            for p, cj in cols[j]:
                x = c * cj
                o0 = p * nd
                for q, ck in cols[k]:
                    lhs[o0 + q] += x * ck
        rhs = store(nd * nd)
        for p, ci in cols[i]:
            for o, d in vd.dp[p]:
                rhs[o] += ci * d
        vd.compare(rep, "morphism-comultiplicative", (i,), lhs, D3, rhs, D2, nd, 2)

        e_lhs = vs.eps[i]
        e_rhs = sum(x * vd.eps[p] for p, x in cols[i])
        if not vanishes(e_lhs * D - e_rhs, vd.M):
            rep.add("morphism-counit", (i,), vd.high(e_lhs, D), vd.high(e_rhs, D2))

    for i in range(ns):
        # m S_src e_i and S_dst m e_i
        lhs = store(nd)
        for l, sl in vs.s[i]:
            for p, x in cols[l]:
                lhs[p] += sl * x
        rhs = store(nd)
        for p, x in cols[i]:
            for t, sp in vd.s[p]:
                rhs[t] += x * sp
        vd.compare(rep, "morphism-antipode", (i,), lhs, D2, rhs, D2)
    return rep


def tensor_hopf(h1: HopfPresentation, h2: HopfPresentation) -> HopfPresentation:
    """Tensor product Hopf algebra on basis e_i (x) f_j, index i*dim2 + j."""
    n2 = h2.dim
    n = h1.dim * n2

    def kron3(t1, t2):
        """The structure tensor t1 (x) t2, from the products of their nonzero entries."""
        return StructureTensor(n, (
            sorted((j1 * n2 + j2, k1 * n2 + k2, c1 * c2) for j1, k1, c1 in p1 for j2, k2, c2 in p2)
            for p1, p2 in product(t1.planes, t2.planes)
        ))

    def kron1(v1, v2):
        return [x * y for x in v1 for y in v2]

    alg = AlgebraPresentation(n, kron3(h1.alg.mult, h2.alg.mult), kron1(h1.alg.unit, h2.alg.unit))
    antipode = h1.antipode.kron(h2.antipode)
    return HopfPresentation(alg, kron3(h1.comult, h2.comult), kron1(h1.counit, h2.counit), antipode)
