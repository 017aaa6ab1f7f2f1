"""Verification on algebra generators, against the full sweep it replaces.

`AlgebraPresentation._gens` lists basis indices that generate the algebra.
check_bialgebra and verify_irreps decide on those generators first and
run every index on any failure, so each report must equal the forced full
sweep: `hopf._bialgebra_sweep` over every index, and verify_irreps on a
copy of the algebra whose `_gens` is None.  Once every module passes,
verify_irreps decides by the rank of gamma and computes no End or Hom
space; a failing family lists its End and Hom failures on every action.
hom_space, which refines its kernel by every constraint in index order,
must equal a test-local reference that stacks all the constraints and
eliminates once.

The generators close sets of basis indices, which is the greedy choice
when every product of basis elements is a multiple of at most one basis
element.  K[S3] and rebuilt D(Z2) under rational unitriangular changes of
basis, a fixed one and random ones, have products with several terms,
where the closure may take more generators than the greedy choice: those
must still generate, and every report must still equal the full sweep.
K[Z2 x Z2] on a basis where a product of two members has a term outside
the subalgebra they generate shows why such a product closes nothing.  A
guard test asserts that the generators decide, with no full sweep, on
every shipped Hopf example and module family and on rebuilt K[S4].
"""

import dataclasses
import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrec import cli, fusion, hopf, repcat
from hopfrec.examples import EXAMPLES, gen_group_algebra
from hopfrec.groups import cyclic_group
from hopfrec.hopf import AlgebraPresentation, HopfPresentation, check_algebra, check_bialgebra, run_hopf_checks
from hopfrec.matrices import Matrix, mat_inverse
from hopfrec.reconstruct import reconstruct_hopf, zeta_modules
from hopfrec.repcat import ModuleRep, gamma_roundtrip, hom_space, skeletalize, tensor_module, verify_irreps
from hopfrec.scalars import Scalar
from test_tensorator_bumps import alternating_group_4, modules_a4

HOPF_EXAMPLES = [name for name, (kind, _) in EXAMPLES.items() if kind == "hopf"]
FAMILIES = [name for name in HOPF_EXAMPLES if f"{name}-modules" in EXAMPLES]


def fracs(xs):
    return [x.as_fraction() for x in xs]


def unitriangular(n: int, above) -> list:
    """The n x n P with 1 on the diagonal, 0 below it and above(a, i) at
    (a, i) above it."""
    return [[Fraction(int(a == i)) if a >= i else Fraction(above(a, i)) for i in range(n)] for a in range(n)]


def change_basis(h: HopfPresentation, mods: list, P=None):
    """h and its modules on the basis f_i = sum_a P[a][i] e_a, for an
    invertible rational P, by default unitriangular with ((a + 2 i) % 5 - 2) / 3
    above the diagonal."""
    n = h.dim
    P = P or unitriangular(n, lambda a, i: Fraction((a + 2 * i) % 5 - 2, 3))
    Q = [fracs(row) for row in mat_inverse(Matrix.from_rows(P)).to_rows()]
    mult = [[fracs(row) for row in plane] for plane in h.alg.mult]
    comult = [[fracs(row) for row in plane] for plane in h.comult]

    def contract(t, left, mid, right):
        """out[i][j][k] = sum left[a][i] mid[b][j] right[k][c] t[a][b][c]."""
        t1 = [[[sum(left[a][i] * t[a][b][c] for a in range(n)) for c in range(n)] for b in range(n)] for i in range(n)]
        t2 = [[[sum(mid[b][j] * t1[i][b][c] for b in range(n)) for c in range(n)] for j in range(n)] for i in range(n)]
        return [[[sum(right[k][c] * t2[i][j][c] for c in range(n)) for k in range(n)] for j in range(n)] for i in range(n)]

    Qt = [list(col) for col in zip(*Q)]
    unit = [sum(Q[k][c] * u for c, u in enumerate(fracs(h.alg.unit))) for k in range(n)]
    counit = [sum(P[a][i] * e for a, e in enumerate(fracs(h.counit))) for i in range(n)]
    antipode = Matrix.from_rows(Q) * h.antipode * Matrix.from_rows(P)
    out = HopfPresentation(
        AlgebraPresentation(n, contract(mult, P, P, Q), unit), contract(comult, P, Qt, Q), counit, antipode
    )
    moved = [
        ModuleRep(v.dim, [functools.reduce(Matrix.__add__, [P[a][i] * v.action[a] for a in range(n)]) for i in range(n)], v.name)
        for v in mods
    ]
    return out, moved


@functools.cache
def base(name):
    """(presentation, module family) by name: the shipped ks3, rebuilt K[S3],
    D(Z2) and K[S4] with their zeta_modules, and the two dense ones."""
    if name.startswith("dense-"):
        return change_basis(*base(name.removeprefix("dense-")))
    if name.startswith("rebuilt-"):
        src = name.removeprefix("rebuilt-")
        rec = reconstruct_hopf(*skeletalize(EXAMPLES[src][1](), EXAMPLES[f"{src}-modules"][1](), verify=False), verify=False)
        return rec.hopf, zeta_modules(rec)
    return EXAMPLES[name][1](), EXAMPLES[f"{name}-modules"][1]()


def span_of_words(alg: AlgebraPresentation, gens: list) -> int:
    """Dimension of the span of 1 and every product of the generators, by
    left products over the structure tensor as given; one rref per word
    length keeps the independent vectors."""
    vecs: list = []
    frontier = [list(alg.unit)]
    while frontier:
        cand = vecs + frontier
        _, pivots = Matrix.from_rows(cand).transpose().rref()
        grown = [cand[p] for p in pivots if p >= len(vecs)]
        vecs = [cand[p] for p in pivots]
        frontier = [times(alg, g, w) for w in grown for g in gens]
    return len(vecs)


def times(alg: AlgebraPresentation, g: int, w: list) -> list:
    """e_g w over the structure tensor."""
    out = [Scalar.rational(0)] * alg.dim
    for j, x in enumerate(w):
        if x:
            for k, c in enumerate(alg.mult[g][j]):
                if c:
                    out[k] = out[k] + x * c
    return out


def single_term(alg: AlgebraPresentation) -> bool:
    """Every product of basis elements is a multiple of at most one basis element."""
    return all(len(row) <= 1 for plane in alg._views.m for row in plane)


DENSE_GENERATORS = {"dense-ks3": [1, 2, 3, 4, 5], "dense-rebuilt-dz2": [0, 1, 2]}


@pytest.mark.parametrize("name", DENSE_GENERATORS)
def test_dense_generators_close_index_sets_and_generate(name):
    """Products with several terms close nothing, so dense K[S3] takes
    every index its single-term products do not reach: more than the two
    transpositions the greedy choice would take, and still generators."""
    h, _ = base(name)
    want = DENSE_GENERATORS[name]
    alg = h.alg
    assert not single_term(alg)
    assert alg._gens == want and span_of_words(alg, want) == alg.dim
    # the same algebra on packed views picks the same generators
    promoted = AlgebraPresentation(alg.dim, [[[x.promote(2) for x in r] for r in p] for p in alg.mult], [x.promote(2) for x in alg.unit])
    assert promoted._gens == want
    assert all(r.passed for r in run_hopf_checks(h))


def test_a_product_with_several_terms_closes_nothing():
    """K[Z2 x Z2] = K<a, b> on f_0 = a + b, f_1 = 1, f_2 = ab + a, f_3 = a:
    f_0^2 = 2 + 2ab = 2 f_1 + 2 f_2 - 2 f_3 has the term f_3 = a, which lies
    outside K[f_0] = span(1, a + b, ab).  Taking its indices in would leave
    f_0 alone; closing nothing on it keeps f_3, one more than the greedy
    [0, 2]."""
    h, mods = base("kz2z2")
    P = [[0, 1, 0, 0], [1, 0, 1, 1], [1, 0, 0, 0], [0, 0, 1, 0]]  # P[a][i]: f_i in e_0 = 1, e_1 = a, e_2 = b, e_3 = ab
    h, mods = change_basis(h, mods, [[Fraction(x) for x in row] for row in P])
    assert h.alg._gens == [0, 2, 3] and span_of_words(h.alg, [0, 2, 3]) == 4
    assert span_of_words(h.alg, [0]) == 3 and span_of_words(h.alg, [0, 2]) == 4
    assert_reports_match_full_sweep(h, mods)


@pytest.mark.parametrize("name", ["ks3", "fun-s3", "dz2", "rebuilt-ks3", "rebuilt-dz2"])
def test_generators_are_the_greedy_choice(name):
    """On single-term products, e_i joins exactly when it enlarges the
    subalgebra generated so far."""
    alg = base(name)[0].alg
    assert single_term(alg)
    want: list = []
    for i in range(alg.dim):
        if span_of_words(alg, want + [i]) > span_of_words(alg, want):
            want.append(i)
    assert alg._gens == want


@pytest.mark.parametrize("name", HOPF_EXAMPLES + ["rebuilt-ks4"])
def test_shipped_generators_generate(name):
    h = base(name)[0] if name.startswith("rebuilt-") else EXAMPLES[name][1]()
    gens = h.alg._gens
    assert span_of_words(h.alg, gens) == h.dim
    support = [k for k, x in enumerate(h.alg.unit) if x]
    assert len(support) > 1 or support[0] not in gens  # 1 is never a generator


def test_group_algebra_generators_and_rebuilt_count():
    assert EXAMPLES["ks4"][1]().alg._gens == [1, 2, 6]
    assert len(base("rebuilt-ks4")[0].alg._gens) == 15


def test_generators_need_a_passing_check_algebra_run_once(monkeypatch):
    calls = []
    real = hopf.check_algebra
    monkeypatch.setattr(hopf, "check_algebra", lambda a: calls.append(a) or real(a))
    h = EXAMPLES["ks3"][1]()
    run_hopf_checks(h)
    assert len(calls) == 1 and h.alg._gens == [1, 2]
    # with no verdict yet, the generators run the sweep once themselves
    fresh = EXAMPLES["ks3"][1]()
    assert fresh.alg._gens == [1, 2] and len(calls) == 2
    broken = [[list(r) for r in p] for p in fresh.alg.mult]
    broken[1][1][0] = broken[1][1][0] + 1
    alg = AlgebraPresentation(fresh.dim, broken, fresh.alg.unit)
    assert not check_algebra(alg).passed and alg._gens is None


# -- reports equal the forced full sweep -------------------------------------

def full_sweep_alg(alg: AlgebraPresentation) -> AlgebraPresentation:
    out = dataclasses.replace(alg)
    out.__dict__["_gens"] = None
    return out


def bump(h, mods, target, cell, by):
    """h and mods with one entry raised by `by`; target names the tensor,
    "unit", "counit" or "action".  Returns (presentation, family)."""
    t = {
        "mult": [[list(r) for r in p] for p in h.alg.mult],
        "comult": [[list(r) for r in p] for p in h.comult],
        "unit": list(h.alg.unit),
        "counit": list(h.counit),
    }
    if target == "action":
        m, i, r, c = cell
        rows = mods[m].action[i].to_rows()
        rows[r][c] = rows[r][c] + by
        action = list(mods[m].action)
        action[i] = Matrix.from_rows(rows)
        return h, mods[:m] + [ModuleRep(mods[m].dim, action, mods[m].name)] + mods[m + 1 :]
    x = t[target]
    for k in cell[:-1]:
        x = x[k]
    x[cell[-1]] = x[cell[-1]] + by
    alg = AlgebraPresentation(h.dim, t["mult"], t["unit"])
    return HopfPresentation(alg, t["comult"], t["counit"], h.antipode), mods


def ref_hom_space(v: ModuleRep, w: ModuleRep) -> list:
    """hom_space from scratch, on rational actions: (aw T - T av)[i, k] =
    sum_j aw[i, j] T[j, k] - sum_l T[i, l] av[l, k] = 0 for every basis
    element, one Fraction row per cell on the row-major entries of T,
    built from the action entries and stacked.  One Gauss-Jordan
    elimination of the stack with its columns reversed gives the canonical
    reduced echelon basis of the kernel: reversed back, the vector of a
    free column leads there and is 0 at every other free column."""
    nv, nw = v.dim, w.dim
    n = nv * nw
    rows = []
    for av, aw in zip(v.action, w.action):
        a, b = fracs(av.entries), fracs(aw.entries)
        for i in range(nw):
            for k in range(nv):
                row = [Fraction(0)] * n
                for j in range(nw):
                    row[j * nv + k] += b[i * nw + j]
                for l in range(nv):
                    row[i * nv + l] -= a[l * nv + k]
                rows.append(row[::-1])
    pivots: list = []
    for c in range(n):
        r = len(pivots)
        p = next((q for q in range(r, len(rows)) if rows[q][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for q, row in enumerate(rows):
            if q != r and row[c]:
                rows[q] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    basis = []
    for f in reversed([c for c in range(n) if c not in pivots]):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            vec[p] = -row[f]
        basis.append(Matrix(nw, nv, vec[::-1]))
    return basis


def assert_reports_match_full_sweep(h, mods):
    n = h.dim
    assert check_bialgebra(h).lines() == hopf._bialgebra_sweep(h._views, range(n), False).lines()
    assert verify_irreps(h.alg, mods).lines() == verify_irreps(full_sweep_alg(h.alg), mods).lines()
    # tensor modules are not modules when the comult or mult is bumped
    pairs = [(v, w) for v in mods for w in mods]
    pairs += [(w, tensor_module(h, mods[-1], v)) for v in mods[:2] for w in mods]
    for v, w in pairs:
        assert hom_space(v, w) == ref_hom_space(v, w)


def test_hom_space_when_no_constraint_cuts():
    """Zero actions cut nothing: every matrix intertwines, and the basis is
    the matrix units in row-major order."""
    v = ModuleRep(2, [Matrix.zeros(2, 2)] * 3, "v")
    w = ModuleRep(1, [Matrix.zeros(1, 1)] * 3, "w")
    for a, b in ((v, w), (w, v), (v, v)):
        assert hom_space(a, b) == ref_hom_space(a, b)
    assert hom_space(v, w) == [Matrix.from_rows([[1, 0]]), Matrix.from_rows([[0, 1]])]


BASES = ["ks3", "rebuilt-ks3", "rebuilt-dz2", "dense-ks3", "dense-rebuilt-dz2"]


@pytest.mark.parametrize("name", BASES)
def test_unbumped_reports_match_full_sweep(name):
    assert_reports_match_full_sweep(*base(name))


def test_module_structure_needs_the_unit_to_act_as_one():
    """Fun(Z2) is generated by delta_0, whose nonempty words never reach
    1 = delta_0 + delta_1.  The line with delta_0 acting by 0 and delta_1
    by 2 is multiplicative at (0, j), but not at (1, 1), and the unit acts
    by 2: the full sweep must run."""
    h = EXAMPLES["fun-z2"][1]()
    assert h.alg._gens == [0]
    v = ModuleRep(1, [Matrix(1, 1, [0]), Matrix(1, 1, [2])], "v")
    rep = verify_irreps(h.alg, [v])
    assert ("module-structure", (0, 1, 1)) in [(f.check, f.index) for f in rep.failures]
    assert rep.lines() == verify_irreps(full_sweep_alg(h.alg), [v]).lines()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_bumped_reports_match_full_sweep(data):
    h, mods = base(data.draw(st.sampled_from(BASES)))
    n = h.dim
    target = data.draw(st.sampled_from(["mult", "comult", "unit", "counit", "action"]))
    idx = st.integers(0, n - 1)
    if target == "action":
        m = data.draw(st.integers(0, len(mods) - 1))
        d = st.integers(0, mods[m].dim - 1)
        cell = (m, data.draw(idx), data.draw(d), data.draw(d))
    elif target in ("unit", "counit"):
        cell = (data.draw(idx),)
    else:
        cell = data.draw(st.tuples(idx, idx, idx))
    p = data.draw(st.integers(-3, 3).filter(bool))
    q = data.draw(st.integers(1, 3))
    assert_reports_match_full_sweep(*bump(h, mods, target, cell, Scalar.rational(p, q)))


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_random_changes_of_basis_generate_and_match_full_sweep(data):
    """K[S3] or rebuilt D(Z2) on the basis of a random rational
    unitriangular P: the generators generate, and every report equals the
    forced full sweep."""
    name = data.draw(st.sampled_from(["ks3", "rebuilt-dz2"]))
    h, mods = base(name)
    cells = [(a, i) for i in range(h.dim) for a in range(i)]
    entries = data.draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=len(cells), max_size=len(cells)))
    chosen = dict(zip(cells, entries))
    h, mods = change_basis(h, mods, unitriangular(h.dim, lambda a, i: chosen[a, i]))
    gens = h.alg._gens
    assert gens is not None and span_of_words(h.alg, gens) == h.dim
    assert_reports_match_full_sweep(h, mods)


# -- the generators decide on every shipped example --------------------------

@pytest.fixture
def sweeps(monkeypatch):
    """The index sets each layer's sweep receives: a range means a full
    sweep, a list the generators."""
    seen = []
    for module, name in ((hopf, "_bialgebra_sweep"), (repcat, "_module_structure")):
        real = getattr(module, name)

        def spy(*args, real=real, name=name, **kwargs):
            rows = args[1] if name == "_bialgebra_sweep" else args[-1]
            seen.append((name, type(rows) is range))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("name", HOPF_EXAMPLES + ["rebuilt-ks4"])
def test_check_bialgebra_decides_on_generators(name, sweeps):
    h = base(name)[0] if name.startswith("rebuilt-") else EXAMPLES[name][1]()
    assert check_bialgebra(h).passed
    assert sweeps == [("_bialgebra_sweep", False)]


@pytest.mark.parametrize("name", FAMILIES)
def test_skeletalize_decides_on_generators(name, sweeps):
    skeletalize(*base(name), verify=False)
    assert sweeps and not any(full for _, full in sweeps)


def test_rebuilt_ks4_irreps_decide_on_generators(sweeps):
    h, mods = base("rebuilt-ks4")
    assert verify_irreps(h.alg, mods).passed
    assert sweeps and not any(full for _, full in sweeps)


def test_ks4_decompositions_refine_on_generators_only(monkeypatch):
    """A K[S4] round trip builds 343 intertwiner constraints, all in the
    decompositions in _skeletalize, at most one per generator in each
    hom_space; verify_irreps, which decides by the rank of gamma, builds
    none."""
    h, mods = EXAMPLES["ks4"][1](), EXAMPLES["ks4-modules"][1]()
    calls, per_hom, phase = [], [], ["decompositions"]
    real_constraint, real_hom, real_irreps = repcat._intertwiner_constraint, repcat.hom_space, repcat.verify_irreps

    def hom(*args):
        start = len(calls)
        out = real_hom(*args)
        per_hom.append((phase[0], len(calls) - start))
        return out

    def irreps(*args):
        phase[0] = "irreps"
        try:
            return real_irreps(*args)
        finally:
            phase[0] = "decompositions"

    monkeypatch.setattr(repcat, "_intertwiner_constraint", lambda *a: calls.append(a) or real_constraint(*a))
    monkeypatch.setattr(repcat, "hom_space", hom)
    monkeypatch.setattr(repcat, "verify_irreps", irreps)
    assert gamma_roundtrip(h, mods)[0].passed
    decs = [k for p, k in per_hom if p == "decompositions"]
    assert len(decs) == len(mods) ** 3  # one hom_space per irrep per tensor module
    assert max(decs) <= len(h.alg._gens) == 3
    assert (sum(k for p, k in per_hom if p == "irreps"), sum(decs)) == (0, 343)
    assert len(calls) == 343


# -- the gate: one rank of gamma ----------------------------------------------

def gate_homs(monkeypatch, alg, mods):
    """verify_irreps' report, and for each of its hom_space calls the
    number of actions it read and the dim of the Hom it returned."""
    seen = []
    real_hom = repcat.hom_space

    def hom(v, w):
        out = real_hom(v, w)
        seen.append((len(v.action), len(out)))
        return out

    monkeypatch.setattr(repcat, "hom_space", hom)
    rep = verify_irreps(alg, mods)
    monkeypatch.undo()
    return rep, seen


def full_hom_dims(mods) -> list:
    """The End dims, then the cross Hom dims, in verify_irreps' order, on
    the modules with every action."""
    r = range(len(mods))
    return [len(hom_space(v, v)) for v in mods] + [len(hom_space(mods[a], mods[b])) for a in r for b in r if a != b]


def cyclic_characters(n: int) -> list:
    z = Scalar.zeta(n)
    return [ModuleRep(1, tuple(Matrix(1, 1, [z ** (s * t % n)]) for t in range(n)), f"chi{s}") for s in range(n)]


def gate_case(name):
    if name == "ka4":
        g = alternating_group_4()
        return gen_group_algebra(g), modules_a4(g)
    if name.endswith("-characters"):
        n = int(name.removeprefix("kz").removesuffix("-characters"))
        return gen_group_algebra(cyclic_group(n)), cyclic_characters(n)
    return base(name)


@pytest.mark.parametrize("name", FAMILIES + ["ka4", "kz5-characters", "kz7-characters", "kz8-characters", "rebuilt-ks4"])
def test_gate_passes_with_no_hom_space_call(name, monkeypatch):
    """A complete family of distinct split irreducibles passes the gate on
    the rank of gamma alone: no End or Hom space is computed."""
    h, mods = gate_case(name)
    rep, seen = gate_homs(monkeypatch, h.alg, mods)
    assert rep.passed and seen == []
    assert full_hom_dims(mods) == [1] * len(mods) + [0] * (len(mods) ** 2 - len(mods))


def every_action_case(name):
    h, mods = base("ks3")
    if name == "ks3-std-bumped":
        return bump(h, mods, "action", (2, 1, 0, 0), Scalar.rational(1))
    return dataclasses.replace(h, alg=full_sweep_alg(h.alg)), mods


@pytest.mark.parametrize("name", ["ks3-std-bumped", "ks3-gens-none"])
def test_gate_hom_checks_read_every_action_off_the_premise(name, monkeypatch):
    """A family that fails module structure lists its End and Hom failures
    on every action.  An algebra with no generators sweeps module
    structure on every action and passes on the rank of gamma, which reads
    every action too, with no End or Hom check."""
    h, mods = every_action_case(name)
    rep, seen = gate_homs(monkeypatch, h.alg, mods)
    failed = name == "ks3-std-bumped"
    assert ("module-structure" in {f.check for f in rep.failures}) == failed == (not rep.passed)
    assert all(acts == h.dim for acts, _ in seen)
    assert [d for _, d in seen] == (full_hom_dims(mods) if failed else [])


def test_dim_one_algebra_round_trips_on_every_action(monkeypatch):
    """K[Z/1] is generated by no basis index (e_0 is the unit), and a
    module with no action is not a module: the gate and the decompositions
    keep its one action."""
    h = gen_group_algebra(cyclic_group(1))
    assert h.alg._gens == []
    acts = []
    real = repcat.ModuleRep

    def module(dim, action, name="V"):
        acts.append(len(action))
        return real(dim, action, name)

    monkeypatch.setattr(repcat, "ModuleRep", module)
    rep, _ = gamma_roundtrip(h, [repcat.trivial_module(h)])
    assert rep.passed and rep.flags["bijective"]
    assert acts and set(acts) == {1}


# -- trees and inverses, computed once ---------------------------------------

def test_trees_are_realized_once_per_triple(monkeypatch, tmp_path, capsys):
    # _skeletalize realizes each triple once to solve F; the audit of
    # verify_category (skeletalize with verify, CLI repcat) realizes it again.
    # The wrapper forwards every argument, the second-step blocks and row
    # counts of _skeletalize too, and records the triple alone
    calls = []
    real = fusion.tree_maps
    for module in (fusion, repcat):
        monkeypatch.setattr(module, "tree_maps", lambda *a: calls.append(a[3:6]) or real(*a))
    h, mods = base("ks3")
    triples = sorted(itertools.product(range(len(mods)), repeat=3))
    for go in (lambda: gamma_roundtrip(h, mods), lambda: skeletalize(h, mods, verify=False)):
        calls.clear()
        go()
        assert sorted(calls) == triples
    calls.clear()
    skel, fiber = skeletalize(h, mods, verify=True)
    assert sorted(calls) == sorted(triples * 2)
    calls.clear()
    assert fusion.verify_tensorator(skel, fiber).passed
    assert sorted(calls) == triples
    calls.clear()
    paths = [str(tmp_path / f) for f in ("ks3.json", "mods.json", "skel.json")]
    assert cli.main(["example", "ks3", "-o", paths[0]]) == 0
    assert cli.main(["example", "ks3-modules", "-o", paths[1]]) == 0
    assert cli.main(["repcat", *paths[:2], "-o", paths[2]]) == 0
    capsys.readouterr()
    assert sorted(calls) == sorted(triples * 2)


def test_tree_maps_lower_no_kron_result_afresh(monkeypatch):
    # a matrix that kron builds holds the lowering of its rows, and an
    # identity holds its own, so the product or kron that takes either as a
    # factor does not lower it again (a kron by the rational 1 is the other
    # factor); with the rows of J kept too, tree_maps lowers nothing afresh,
    # on every row or on the first row of each copy, whose second-step
    # blocks keep J's lowering as well
    h, mods = base("ks3")
    skel, fiber = skeletalize(h, mods, verify=False)
    N, J, dims = skel.fusion, fiber.J, fiber.dims
    rows = (1,) * skel.rank
    assert rows != dims
    made, identities, fresh = [], [], []
    real_kron, real_identity, real_lowered = Matrix.kron, Matrix.identity.__func__, Matrix._lowered

    def kron(self, other):
        out = real_kron(self, other)
        if out is not self and out is not other:
            made.append(out)
        return out

    def identity(cls, n):
        identities.append(real_identity(cls, n))
        return identities[-1]

    def lowered(self):
        if not hasattr(self, "_low"):
            fresh.append(self)
        return real_lowered(self)

    monkeypatch.setattr(Matrix, "kron", kron)
    monkeypatch.setattr(Matrix, "identity", classmethod(identity))
    monkeypatch.setattr(Matrix, "_lowered", lowered)
    K = {(x, y): fusion._first_rows(j, N[x][y], dims, rows) for (x, y), j in J.items()}
    for a, b, c in itertools.product(range(skel.rank), repeat=3):
        fusion.tree_maps(N, J, dims, a, b, c, J, dims)
        fusion.tree_maps(N, J, dims, a, b, c, K, rows)
    assert any(m.rows > 1 for m in made) and any(m.rows > 1 for m in identities)
    assert fresh == []


def test_inverse_is_eliminated_once_and_kept_both_ways(monkeypatch):
    m = Matrix.from_rows([[2, 1], [1, 1]])
    inv = mat_inverse(m)
    monkeypatch.setattr(Matrix, "rref", lambda self: pytest.fail("eliminated again"))
    assert mat_inverse(m) is inv
    assert mat_inverse(inv) == m
    assert inv == Matrix.from_rows([[1, -1], [-1, 2]])
