"""The skeletal data of a module family is coherent by construction.

`repcat._skeletalize` proves in its docstring that verify_category passes
on whatever it returns: F solves the tree equations exactly, every J is an
inverse, and the pentagon, unit and duality identities follow.  Here the
full sweep runs on every shipped module family, on K[A4], on the
characters of K[Z/n] for n = 5, 7, 8, on K[S3] with the identity as its
antipode, and on K[Z2 x Z2] with its comult conjugated by an invertible
T in H (x) H that is not a cocycle.  K[S3] conjugated by such a T is not
coassociative, and `_skeletalize` raises on it: no F solves its trees.

`_skeletalize` builds each tensor module's actions at the algebra's
generators alone once check_algebra and check_bialgebra pass (the proof
is in its docstring), so its N and J must equal what decompose reads off
tensor_module, built on every action, in every case here.  A presentation
that fails either check builds every action and ends as the full path
does: the same raise, or the same data.

`_decompositions` solves Hom(V_c, M) under the isotypic bound (the proof
is in its docstring): a spy shows that every Hom it skips is 0 on every
case here, on random changes of basis of them, and it raises what the
full sweep of decompose raises on comult bumps whose family still
passes the gate.

`_skeletalize` solves F on every row of every tree.  The round trip reads
no F, and solves none where H passes check_bialgebra (the existence
argument in `_skeletalize`): its output equals that of reconstruct_hopf
on skeletalize, with no tree realized and no F solved.  A failed premise
solves F, so the round trip raises what `_skeletalize` raises.

The round trip decides only the antipode law of gamma, the other four and
bijectivity holding by construction (the proof in `repcat._roundtrip`):
its report equals the full check_hopf_morphism on its own gamma and
rebuilt presentation, passing or failing.

The CLI's rebuilt-irreps report is certified by the matrix-unit argument
of `cli._cmd_roundtrip`: the family that zeta_modules reads off the
rebuilt algebra passes verify_irreps, with gamma' the identity, on the
reconstruction of every case here.
"""

import dataclasses
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrec import fusion, reconstruct, repcat, serialize
from hopfrec.errors import DecompositionGap, HopfrecError, SkeletalizationFailure
from hopfrec.examples import EXAMPLES, gen_group_algebra, gen_pointed_category, gen_pointed_fiber
from hopfrec.fusion import verify_category
from hopfrec.groups import cyclic_group
from hopfrec.hopf import check_bialgebra, check_hopf_morphism
from hopfrec.matrices import Matrix, mat_inverse
from hopfrec.reconstruct import reconstruct_hopf
from hopfrec.reports import CheckReport
from hopfrec.repcat import (
    ModuleRep,
    _decompositions,
    _roundtrip,
    _skeletalize,
    decompose,
    gamma_roundtrip,
    hom_space,
    skeletalize,
    tensor_module,
    verify_irreps,
)
from hopfrec.scalars import Scalar
from test_acceptance import J_BUMP_GAUGES, gauge_transform
from test_generators import base, bump, change_basis, cyclic_characters, unitriangular
from test_reconstruct import bumped_antipode
from test_tensorator_bumps import alternating_group_4, modules_a4

FAMILIES = [name for name, (kind, _) in EXAMPLES.items() if kind == "hopf" and f"{name}-modules" in EXAMPLES]


def conjugated(h, t: dict):
    """h with comult x -> T Delta(x) T^-1, T = sum t[(j, k)] e_j (x) e_k,
    products taken in the algebra H (x) H."""
    n = h.dim
    m = h.alg.mult

    def times(x: list, y: list) -> list:  # x * y in H (x) H, index j * n + k
        out = [Scalar.coerce(0)] * (n * n)
        for p, xp in enumerate(x):
            if xp:
                for q, yq in enumerate(y):
                    if yq:
                        for j in range(n):
                            for k in range(n):
                                c = m[p // n][q // n][j] * m[p % n][q % n][k]
                                if c:
                                    out[j * n + k] += xp * yq * c
        return out

    tvec = [Scalar.coerce(t.get((j, k), 0)) for j in range(n) for k in range(n)]
    unit = [h.alg.unit[j] * h.alg.unit[k] for j in range(n) for k in range(n)]
    # T^-1 solves T * y = 1: the columns of left multiplication by T
    basis = [[Scalar.coerce(int(i == p)) for i in range(n * n)] for p in range(n * n)]
    left = Matrix.from_rows([list(col) for col in zip(*(times(tvec, e) for e in basis))])
    tinv = (mat_inverse(left) * Matrix.column(unit)).entries
    comult = []
    for i in range(n):
        delta = [h.comult[i][j][k] for j in range(n) for k in range(n)]
        out = times(times(tvec, delta), list(tinv))
        comult.append([[out[j * n + k] for k in range(n)] for j in range(n)])
    return dataclasses.replace(h, comult=comult)


# 1 (x) 1 + 1/2 g1 (x) g2 - 1/3 g2 (x) g3: invertible, and not a cocycle
NOT_A_COCYCLE = {(0, 0): 1, (1, 2): Fraction(1, 2), (2, 3): Fraction(-1, 3)}


@lru_cache(maxsize=None)
def case(name: str):
    if name in FAMILIES:
        return EXAMPLES[name][1](), EXAMPLES[f"{name}-modules"][1]()
    if name == "ka4":
        g = alternating_group_4()
        return gen_group_algebra(g), modules_a4(g)
    if name.endswith("-identity-antipode"):
        h, mods = case(name.removesuffix("-identity-antipode"))
        return dataclasses.replace(h, antipode=Matrix.identity(h.dim)), mods
    if name == "kz2z2-conjugated":
        h, mods = case("kz2z2")
        return conjugated(h, NOT_A_COCYCLE), mods
    n = int(name.removeprefix("kz"))  # K[Z/n] on its characters
    return gen_group_algebra(cyclic_group(n)), cyclic_characters(n)


CASES = FAMILIES + ["ka4", "kz5", "kz7", "kz8", "ks3-identity-antipode", "kz2z2-conjugated"]


@pytest.mark.parametrize("name", CASES)
def test_skeletal_data_passes_every_coherence_check(name):
    reports = verify_category(*_skeletalize(*case(name)))
    assert [r.name for r in reports] == ["pentagon", "tensor-structure", "duality"]
    assert [f.line() for r in reports for f in r.failures] == []


def test_conjugating_a_commutative_comult_changes_nothing():
    # H (x) H is commutative, so T Delta T^-1 is Delta itself
    assert case("kz2z2-conjugated")[0].comult == case("kz2z2")[0].comult


def test_a_non_coassociative_comult_is_not_skeletalized():
    h, mods = case("ks3")
    bad = conjugated(h, NOT_A_COCYCLE)
    assert {f.check for f in check_bialgebra(bad).failures} >= {"coassociativity"}
    with pytest.raises(SkeletalizationFailure, match="is not solvable"):
        _skeletalize(bad, mods)



# -- tensor modules decomposed on the generators -----------------------------

@pytest.fixture
def action_rows(monkeypatch):
    """The index sets at which tensor-module actions are built."""
    seen = []
    real = repcat._tensor_actions
    monkeypatch.setattr(repcat, "_tensor_actions", lambda h, v, w, rows: seen.append(list(rows)) or real(h, v, w, rows))
    return seen


def cells(m: Matrix) -> list:
    return [(x.conductor, x.coeffs) for x in m.entries]


def assert_full_decompositions(h, mods, N, J):
    """N and J are what decompose reads off every tensor_module."""
    for (a, v), (b, w) in product(enumerate(mods), repeat=2):
        dec = decompose(tensor_module(h, v, w), mods)
        assert N[a][b] == dec.mult
        assert cells(J[(a, b)]) == cells(dec.tau)


def spy_bound(mp) -> list:
    """Per decomposition read off by `repcat._isotypic_sum`: (tensor
    module M, the family members whose Hom into M was solved, the bases)."""
    solved, seen = [], []
    real_hom, real_sum = repcat.hom_space, repcat._isotypic_sum

    def hom(v, w):
        solved.append(v)
        return real_hom(v, w)

    def isotypic(v, bases):
        seen.append((v, solved[:], bases))
        solved.clear()
        return real_sum(v, bases)

    mp.setattr(repcat, "hom_space", hom)
    mp.setattr(repcat, "_isotypic_sum", isotypic)
    return seen


@pytest.fixture
def bound(monkeypatch):
    return spy_bound(monkeypatch)


def assert_skips_are_zero(h, mods, seen) -> None:
    """The family passes the gate, and every irreducible that the bound
    skipped has hom_space(V_c, M) == [] on the actions M lists; the bound
    skips at least one."""
    assert verify_irreps(h.alg, mods).passed
    gens, skips = h.alg._gens, 0
    assert len(seen) == len(mods) ** 2
    for m, solved, bases in seen:
        rows = gens if gens and len(m.action) == len(gens) else range(h.dim)
        for v, basis in zip(mods, bases):
            vc = ModuleRep(v.dim, [v.action[i] for i in rows], v.name)
            if vc not in solved:
                assert basis == [] and hom_space(vc, m) == []
                skips += 1
    assert skips


@pytest.mark.parametrize("name", CASES)
def test_generator_decompositions_equal_the_full_ones(name, action_rows, bound):
    h, mods = case(name)
    skel, fiber = _skeletalize(h, mods)
    assert action_rows == [h.alg._gens] * len(mods) ** 2
    assert_skips_are_zero(h, mods, bound)
    assert_full_decompositions(h, mods, skel.fusion, fiber.J)


@given(st.data())
@settings(max_examples=8, deadline=None)
def test_the_bound_skips_only_zero_homs_on_random_bases(data):
    """The bound skips only zero Hom spaces, and N and J are the full ones,
    on every case but K[S4], whose change of basis alone takes minutes,
    moved to the basis of a random rational unitriangular P."""
    h, mods = case(data.draw(st.sampled_from([name for name in CASES if name != "ks4"])))
    above = [(a, i) for i in range(h.dim) for a in range(i)]
    entries = data.draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=len(above), max_size=len(above)))
    chosen = dict(zip(above, entries))
    h, mods = change_basis(h, mods, unitriangular(h.dim, lambda a, i: chosen[a, i]))
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_bound(mp)
        _, N, J, _ = _decompositions(h, mods)
    assert_skips_are_zero(h, mods, seen)
    assert_full_decompositions(h, mods, N, J)


def comult_bumps(name: str, count: int) -> list:
    """count seeded bumps of the comult of case(name), each by a nonzero
    c = p/q added to some Delta(e_i), as (cell, c) lists for `bump`: on odd
    m, c e_j (x) e_k, which mostly stops the decompositions at 1 (x) 1;
    on even m, c (e_j - e_j') (x) (e_k - e_k'), which leaves 1 (x) V and
    V (x) 1 as they were wherever the counit takes one value on e_j and
    e_j' and one on e_k and e_k', so that a later tensor module decides."""
    h, _ = case(name)
    n, rng = h.dim, random.Random(name)
    out = []
    for m in range(count):
        i, (j, j2), (k, k2) = rng.randrange(n), rng.sample(range(n), 2), rng.sample(range(n), 2)
        by = Scalar.rational(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
        terms = [((j, k), 1)] if m % 2 else [((j, k), 1), ((j, k2), -1), ((j2, k), -1), ((j2, k2), 1)]
        out.append(pytest.param(name, [((i, x, y), by * sign) for (x, y), sign in terms], id=f"{name}-{m}"))
    return out


def decomposed(run):
    """(N, the cells of every J) that run returns, or the DecompositionGap
    it raises, as (type, message)."""
    try:
        N, J = run()
    except DecompositionGap as e:
        return type(e), str(e)
    return N, {key: cells(tau) for key, tau in J.items()}


def full_sweep(h, mods):
    decs = {(a, b): decompose(tensor_module(h, v, w), mods) for (a, v), (b, w) in product(enumerate(mods), repeat=2)}
    r = len(mods)
    return tuple(tuple(decs[a, b].mult for b in range(r)) for a in range(r)), {k: d.tau for k, d in decs.items()}


@pytest.mark.parametrize("name,bumps", [p for name in ("ks3", "dz2", "ks4") for p in comult_bumps(name, 24)])
def test_a_comult_bump_raises_what_the_full_sweep_raises(name, bumps):
    """The family of a comult-bumped presentation still passes the gate,
    and check_bialgebra fails: _decompositions takes every action, under
    the bound, and ends as decompose on every tensor_module does."""
    h, mods = case(name)
    for cell, by in bumps:
        h, mods = bump(h, mods, "comult", cell, by)
    assert verify_irreps(h.alg, mods).passed and not check_bialgebra(h).passed
    assert decomposed(lambda: _decompositions(h, mods)[1:3]) == decomposed(lambda: full_sweep(h, mods))


# 1 (x) 1 + 1/2 (g1 - 1) (x) (g2 - 1): its legs are counital, so T Delta T^-1
# is a counital algebra map; T is not a cocycle, so it is not coassociative
COUNITAL_NOT_A_COCYCLE = {(0, 0): Fraction(3, 2), (1, 2): Fraction(1, 2), (1, 0): Fraction(-1, 2), (0, 2): Fraction(-1, 2)}


def failed_premise(name: str):
    h, mods = case("ks3")
    if name == "ks3-conjugated":  # multiplicative, not coassociative
        return conjugated(h, NOT_A_COCYCLE), mods
    if name == "ks3-twisted":  # fails coassociativity alone
        return conjugated(h, COUNITAL_NOT_A_COCYCLE), mods
    if name == "ks3-comult-bumped":  # e_0 = 1 is not a generator of K[S3]
        return bump(h, mods, "comult", (0, 0, 0), Scalar.rational(1))
    return bump(h, mods, "mult", (1, 1, 0), Scalar.rational(1))  # fails check_algebra


# what `_skeletalize` raises on each, as it did when it built every action
# unconditionally; None where it returns
FAILED_PREMISES = {
    "ks3-conjugated": (SkeletalizationFailure, "recoordinatization at (0, 0, 2, 2) is not solvable"),
    "ks3-twisted": (SkeletalizationFailure, "recoordinatization at (1, 2, 1, 2) is not solvable"),
    "ks3-comult-bumped": (DecompositionGap, "module (triv(x)triv) has dim 1 but the family accounts for 0"),
    "ks3-mult-bumped": None,
}


@pytest.mark.parametrize("name", FAILED_PREMISES)
def test_a_failed_premise_builds_every_action(name, action_rows):
    h, mods = failed_premise(name)
    assert h.alg._gens is None or not check_bialgebra(h).passed
    try:
        out = _skeletalize(h, mods)
    except HopfrecError as e:
        out = e
    assert action_rows and all(rows == list(range(h.dim)) for rows in action_rows)
    if FAILED_PREMISES[name] is None:
        assert_full_decompositions(h, mods, out[0].fusion, out[1].J)
    else:
        assert (type(out), str(out)) == FAILED_PREMISES[name]


# -- F where it is output -----------------------------------------------------

@pytest.fixture
def realized(monkeypatch):
    """(dims[d], dims[a] dims[b] dims[c], left, right) for every total d of
    every tree_maps call."""
    seen = []
    real = fusion.tree_maps

    def spy(N, J, dims, a, b, c):
        out = real(N, J, dims, a, b, c)
        seen.extend((dims[d], dims[a] * dims[b] * dims[c], left, right) for d, left, right in out)
        return out

    for module in (fusion, repcat):
        monkeypatch.setattr(module, "tree_maps", spy)
    return seen


@pytest.fixture
def solves(monkeypatch):
    """The F solves of repcat, one entry per mat_rsolve call."""
    seen = []
    real = repcat.mat_rsolve
    monkeypatch.setattr(repcat, "mat_rsolve", lambda a, b: seen.append((a, b)) or real(a, b))
    return seen


def rebuilt(h, mods):
    """What the round trip returns, computed through skeletalize and
    reconstruct_hopf: the rebuilt presentation with its basis, gamma, and
    the report lines and flags of check_hopf_morphism."""
    recon = reconstruct_hopf(*skeletalize(h, mods, verify=False), verify=False)
    gamma = repcat._gamma(mods, h.dim)
    rep = check_hopf_morphism(h, recon.hopf, gamma)
    return serialize.dumps(recon.hopf, basis=recon.basis), gamma, rep.lines(), rep.flags


ROUND_TRIPS = FAMILIES + ["rebuilt-ks4", "ka4", "kz5", "kz7", "kz8", "kz12"]


@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_the_round_trip_solves_no_f(name, realized, solves):
    h, mods = base(name) if name == "rebuilt-ks4" else case(name)
    realized.clear(), solves.clear()  # rebuilding K[S4] skeletalizes it
    rep, gamma, recon = _roundtrip(h, mods)
    assert realized == [] and solves == []
    got = serialize.dumps(recon.hopf, basis=recon.basis), gamma, rep.lines(), rep.flags
    assert got == rebuilt(h, mods)


def scalar_comult(skel, fiber) -> list:
    """The comult of the rebuilt presentation as a Scalar sum over the J
    blocks: the plane of E^c_ij gets J^-1[t, o+i] J[o+j, u] at the cell
    ((a, i1, j1), (b, k1, l1)), t = (i1, k1) and u = (j1, l1), from every
    copy o of c in every a (x) b; each plane lists (q1, q2, conductor,
    coefficients) over its cells in order, a cell that cancels dropped."""
    d, N = fiber.dims, skel.fusion
    offs = reconstruct.endf_offsets(d)
    planes = [{} for _ in range(sum(x * x for x in d))]
    for (a, b), jm in fiber.J.items():
        jinv = mat_inverse(jm)
        for c in range(skel.rank):
            for mu in range(N[a][b][c]):
                o = fusion._copy_offset(N[a][b], d, c, mu)
                for i, j, t, u in product(range(d[c]), range(d[c]), range(jm.rows), range(jm.rows)):
                    (i1, k1), (j1, l1) = divmod(t, d[b]), divmod(u, d[b])
                    key = (offs[a] + i1 * d[a] + j1, offs[b] + k1 * d[b] + l1)
                    plane = planes[offs[c] + i * d[c] + j]
                    plane[key] = plane.get(key, 0) + jinv.at(t, o + i) * jm.at(o + j, u)
    return [[(*key, x.conductor, x.coeffs) for key, x in sorted(p.items()) if x] for p in planes]


def gauged_z2():
    """The trivial Vec_Z2 fiber gauged by eta = (1, 1/(z8 + z8^-1)) over
    Q(zeta_8): J(g, g) = 2, and every J block but J(e, e) at conductor 8."""
    z2 = cyclic_group(2)
    skel = gen_pointed_category(z2)
    eta = [Matrix(1, 1, [x]) for x in J_BUMP_GAUGES[(1, 1)][1]]
    return skel, gauge_transform(skel, gen_pointed_fiber(z2), eta)


@pytest.mark.parametrize("name", CASES + ["kz12", "z2-gauge"])
def test_the_assembled_comult_is_the_scalar_sum_over_the_j_blocks(name):
    # the packed ring reads each cell back at the conductor of its J block:
    # conductor 1 beside 8 on the gauged fiber
    skel, fiber = gauged_z2() if name == "z2-gauge" else _skeletalize(*case(name))
    if name == "z2-gauge":
        assert [fiber.J[k]._n for k in sorted(fiber.J)] == [1, 8, 8, 8]
    got = [[(q1, q2, x.conductor, x.coeffs) for q1, q2, x in p] for p in reconstruct._assemble(skel, fiber).hopf.comult.planes]
    assert got == scalar_comult(skel, fiber)


@pytest.mark.parametrize("name", CASES)
def test_the_rebuilt_matrix_units_are_a_complete_irreducible_family(name):
    _, _, recon = _roundtrip(*case(name))
    mods = reconstruct.zeta_modules(recon)
    rep = repcat.verify_irreps(recon.hopf.alg, mods)
    assert rep.as_dict() == CheckReport("irreducible-family").as_dict()
    assert repcat._gamma(mods, recon.hopf.dim) == Matrix.identity(recon.hopf.dim)


# the antipode identity's cases, each with the number of morphism-antipode
# tuples that S' gamma != gamma S fails at
ANTIPODE_IDENTITY = {name: 0 for name in FAMILIES + ["kz5", "kz7", "kz8", "kz12"]} | {
    "ks3-identity-antipode": 2,
    "kz5-identity-antipode": 4,
    "ks3-bumped-rebuilt-antipode": 6,
}


@pytest.mark.parametrize("name", ANTIPODE_IDENTITY)
def test_the_round_trip_reports_what_the_full_morphism_sweep_reports(name, monkeypatch):
    # the four laws that construction fixes, and bijectivity, which the gate
    # certifies, cannot change the report: the antipode identity alone, with
    # the full sweep on a miss, gives check_hopf_morphism's report
    if name == "ks3-bumped-rebuilt-antipode":
        monkeypatch.setattr(reconstruct, "HopfPresentation", bumped_antipode)
    h, mods = case(name.removesuffix("-bumped-rebuilt-antipode"))
    rep, gamma, recon = _roundtrip(h, mods, verify=False)
    assert rep.as_dict() == check_hopf_morphism(h, recon.hopf, gamma).as_dict()
    assert [f.check for f in rep.failures] == ["morphism-antipode"] * ANTIPODE_IDENTITY[name]
    assert rep.flags == {"bijective": True}


# the bumped product makes no module of the family: _skeletalize, which has
# no gate, returns, and skeletalize and the round trip stop at the gate
GATED = (SkeletalizationFailure, "modules are not a complete split irreducible family")


@pytest.mark.parametrize("name", FAILED_PREMISES)
def test_a_failed_premise_round_trip_raises_what_skeletalize_raises(name):
    h, mods = failed_premise(name)
    outcomes = []
    for go in (lambda: skeletalize(h, mods, verify=False), lambda: gamma_roundtrip(h, mods)):
        with pytest.raises(HopfrecError) as e:
            go()
        outcomes.append((type(e.value), str(e.value)))
    assert outcomes == [FAILED_PREMISES[name] or GATED] * 2


def test_a_counital_twist_fails_coassociativity_alone():
    h, _ = failed_premise("ks3-twisted")
    assert {f.check for f in check_bialgebra(h).failures} == {"coassociativity"}


@pytest.mark.parametrize("name", FAILED_PREMISES)
def test_a_failed_premise_realizes_every_row(name, realized):
    h, mods = failed_premise(name)
    try:
        _skeletalize(h, mods)
    except HopfrecError:
        pass
    # the bumped comult fails in its decompositions, before any tree
    assert bool(realized) == (name != "ks3-comult-bumped")
    assert all(left.cols == right.cols == dd * width for dd, width, left, right in realized)


def tree_cells(seen) -> int:
    return sum(len(left.entries) + len(right.entries) for _, _, left, right in seen)


def test_ks4_trees_are_realized_on_one_row_per_copy(realized):
    # the round trip realizes no tree; 2 (sum of dims[a]^2)^3 = 27,648 cells
    # realize every row of every tree, once to solve F and once more in the
    # audit of skeletalize
    h, mods = case("ks4")
    gamma_roundtrip(h, mods)
    assert tree_cells(realized) == 0
    skeletalize(h, mods, verify=False)
    assert tree_cells(realized) == 27_648
    realized.clear()
    skeletalize(h, mods, verify=True)
    assert tree_cells(realized) == 55_296
