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

F is solved, and its trees are realized, on the first row of each copy of
V_d where the proof in `_skeletalize` allows it: H passes check_bialgebra,
and the gate has made each act_d onto End(V_d).  Then F equals the solve
on every row, in value, conductor and text, here on every case and on
rebuilt K[S4]; a failed premise realizes every row.
"""

import dataclasses
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from hopfrec import fusion, repcat
from hopfrec.errors import DecompositionGap, HopfrecError, SkeletalizationFailure
from hopfrec.examples import EXAMPLES, gen_group_algebra
from hopfrec.fusion import tree_maps, verify_category
from hopfrec.groups import cyclic_group
from hopfrec.hopf import check_bialgebra
from hopfrec.matrices import Matrix, mat_inverse, mat_solve
from hopfrec.repcat import _skeletalize, decompose, gamma_roundtrip, skeletalize, tensor_module
from hopfrec.scalars import Scalar
from test_generators import base, bump, cyclic_characters
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
    if name == "ks3-identity-antipode":
        h, mods = case("ks3")
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


def assert_full_decompositions(h, mods, skel, fiber):
    """N and J are what decompose reads off every tensor_module."""
    for (a, v), (b, w) in product(enumerate(mods), repeat=2):
        dec = decompose(tensor_module(h, v, w), mods)
        assert skel.fusion[a][b] == dec.mult
        assert cells(fiber.J[(a, b)]) == cells(dec.tau)


@pytest.mark.parametrize("name", CASES)
def test_generator_decompositions_equal_the_full_ones(name, action_rows):
    h, mods = case(name)
    skel, fiber = _skeletalize(h, mods)
    assert action_rows == [h.alg._gens] * len(mods) ** 2
    assert_full_decompositions(h, mods, skel, fiber)


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
        assert_full_decompositions(h, mods, *out)
    else:
        assert (type(out), str(out)) == FAILED_PREMISES[name]


# -- F on the first row of each copy -------------------------------------------

@pytest.fixture
def realized(monkeypatch):
    """(dims[d], dims[a] dims[b] dims[c], left, right) for every total d of
    every tree_maps call, with every argument forwarded."""
    seen = []
    real = fusion.tree_maps

    def spy(N, J, dims, a, b, c, *rest):
        out = real(N, J, dims, a, b, c, *rest)
        seen.extend((dims[d], dims[a] * dims[b] * dims[c], left, right) for d, left, right in out)
        return out

    for module in (fusion, repcat):
        monkeypatch.setattr(module, "tree_maps", spy)
    return seen


def all_rows_f(skel, fiber) -> dict:
    """F solved on every row of every tree."""
    F = {}
    for a, b, c in product(range(skel.rank), repeat=3):
        for d, left, right in tree_maps(skel.fusion, fiber.J, fiber.dims, a, b, c, fiber.J, fiber.dims):
            F[(a, b, c, d)] = mat_solve(left.transpose(), right.transpose()).transpose()
    return F


@pytest.mark.parametrize("name", CASES + ["rebuilt-ks4"])
def test_f_on_first_rows_equals_the_all_rows_solve(name, realized):
    h, mods = base(name) if name == "rebuilt-ks4" else case(name)
    skel, fiber = _skeletalize(h, mods)
    # every case passes both premises: each tree is realized on one row
    assert realized and all(left.cols == right.cols == width for _, width, left, right in realized)
    want = all_rows_f(skel, fiber)
    assert sorted(skel.F) == sorted(want)
    for key, x in want.items():
        assert [(e.conductor, e.coeffs, str(e)) for e in skel.F[key].entries] == [
            (e.conductor, e.coeffs, str(e)) for e in x.entries
        ]


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
    # 2 (sum of dims[a]^2)^3 = 27,648 cells realize every row of every tree
    h, mods = case("ks4")
    gamma_roundtrip(h, mods)
    assert tree_cells(realized) == 11_520
    realized.clear()
    skeletalize(h, mods, verify=True)  # the audit realizes every row
    assert tree_cells(realized) == 11_520 + 27_648
