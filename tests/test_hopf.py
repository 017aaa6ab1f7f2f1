"""Axiom checkers on structure-constant presentations.

The oracle strategy: known-good presentations (group algebras, function
algebras) must pass with empty failure lists, and hand-broken copies must
fail at exactly the indices a direct computation predicts.
"""

import dataclasses

from hopfrec.examples import gen_function_algebra, gen_group_algebra
from hopfrec.groups import cyclic_group, direct_product, symmetric_group
from hopfrec.hopf import (
    AlgebraPresentation,
    HopfPresentation,
    check_algebra,
    check_antipode,
    check_bialgebra,
    check_hopf_morphism,
    run_hopf_checks,
    tensor_hopf,
)
from hopfrec.matrices import Matrix
from hopfrec.scalars import ONE, ZERO, sc

Z2 = cyclic_group(2)
S3 = symmetric_group(3)


def all_pass(h):
    return all(r.passed for r in run_hopf_checks(h))


def test_one_dimensional_algebra():
    a = AlgebraPresentation(1, (((ONE,),),), (ONE,))
    assert check_algebra(a).passed


def test_group_algebra_suite():
    for g in (Z2, S3, direct_product(Z2, Z2)):
        assert all_pass(gen_group_algebra(g))


def test_function_algebra_suite():
    assert all_pass(gen_function_algebra(Z2))
    assert all_pass(gen_function_algebra(S3))


def mutate_mult(h, i, j, k):
    mult = [[list(v) for v in row] for row in h.alg.mult]
    mult[i][j][k] = mult[i][j][k] + ONE
    return AlgebraPresentation(
        h.alg.dim, tuple(tuple(tuple(v) for v in r) for r in mult), h.alg.unit
    )


def test_broken_associativity_detected():
    h = gen_group_algebra(cyclic_group(4))
    bad = mutate_mult(h, 1, 1, 0)  # e1*e1 = e0 + e2 breaks (e1 e1) e2 = e1 (e1 e2)
    rep = check_algebra(bad)
    assert not rep.passed
    assert (1, 1, 2) in {f.index for f in rep.failures if f.check == "associativity"}


def test_associative_mutation_slips_past_algebra_but_not_bialgebra():
    # e_g * e_g = e_0 + e_g on Z/2 is still an associative unital algebra
    # (the free commutative algebra on one generator mod x^2 = 1 + x), so
    # only the compatibility with the untouched comultiplication catches it
    h = gen_group_algebra(Z2)
    bad_alg = mutate_mult(h, 1, 1, 1)
    assert check_algebra(bad_alg).passed
    rep = check_bialgebra(dataclasses.replace(h, alg=bad_alg))
    assert not rep.passed
    assert any(f.check == "comult-multiplicative" for f in rep.failures)


def test_function_algebra_comult_structure():
    # delta_0 in Fun(Z/2) splits over all factorizations of the identity
    f = gen_function_algebra(Z2)
    d0 = f.comult[0]
    assert d0[0][0] == ONE and d0[1][1] == ONE
    assert d0[0][1].is_zero() and d0[1][0].is_zero()


def test_zeroed_comult_row_hits_counit_identities():
    f = gen_function_algebra(Z2)
    comult = list(f.comult)
    comult[1] = ((ZERO, ZERO), (ZERO, ZERO))
    bad = dataclasses.replace(f, comult=tuple(comult))
    rep = check_bialgebra(bad)
    names = {f_.check for f_ in rep.failures}
    assert "left-counit" in names and "right-counit" in names
    indices = {f_.index for f_ in rep.failures if f_.check == "left-counit"}
    assert indices == {(1,)}


def test_identity_antipode_on_fun_s3():
    """S = id is wrong on Fun(S3); the convolution makes the failure set
    exactly the squares fiber: m(S x id)Delta(delta_g) = sum_{h: h^2 = g} delta_h,
    which equals [g = e] * unit only when g has no square roots mismatch.
    """
    f = gen_function_algebra(S3)
    bad = dataclasses.replace(f, antipode=Matrix.identity(6))
    rep = check_antipode(bad)
    assert not rep.passed

    # independent oracle: with S = id the composite sends delta_g to the sum
    # of delta_h over square roots h^2 = g, so the identity holds iff that sum
    # equals [g = e] * (sum of all deltas)
    expected_bad = set()
    for gi in range(6):
        roots = {hi for hi in range(6) if S3.mul(hi, hi) == gi}
        ok = roots == set(range(6)) if gi == 0 else not roots
        if not ok:
            expected_bad.add(gi)
    got_bad = {f_.index[0] for f_ in rep.failures}
    assert got_bad == expected_bad
    # concretely: identity and both 3-cycles, never the transpositions
    assert got_bad == {0, 3, 4}


def test_tensor_hopf_matches_product_group():
    t = tensor_hopf(gen_group_algebra(Z2), gen_group_algebra(Z2))
    d = gen_group_algebra(direct_product(Z2, Z2))
    assert t.alg.mult == d.alg.mult
    assert t.alg.unit == d.alg.unit
    assert t.comult == d.comult
    assert t.counit == d.counit
    assert t.antipode == d.antipode
    assert all_pass(t)


def test_hopf_morphism_group_to_function_algebra():
    # Z/2 is abelian so K[Z/2] and Fun(Z/2) are isomorphic via characters:
    # e |-> delta_0 + delta_1, g |-> delta_0 - delta_1
    src = gen_group_algebra(Z2)
    dst = gen_function_algebra(Z2)
    m = Matrix.from_rows([[1, 1], [1, -1]])
    rep = check_hopf_morphism(src, dst, m)
    assert rep.passed, [f.line() for f in rep.failures]


def test_hopf_morphism_rejects_non_morphism():
    src = gen_group_algebra(Z2)
    dst = gen_function_algebra(Z2)
    m = Matrix.identity(2)  # swaps grouplike for idempotent basis, not a morphism
    rep = check_hopf_morphism(src, dst, m)
    assert not rep.passed


def test_group_function_duality_pairing():
    # K[G] and Fun(G) are dual: structure constants transpose into each other
    for g in (Z2, S3):
        kg = gen_group_algebra(g)
        fg = gen_function_algebra(g)
        n = g.order
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert kg.alg.mult[i][j][k] == fg.comult[k][i][j]
                    assert fg.alg.mult[i][j][k] == kg.comult[k][i][j]
        for k in range(n):
            assert kg.alg.unit[k] == fg.counit[k]
            assert fg.alg.unit[k] == kg.counit[k]
        assert kg.antipode == fg.antipode.transpose()


def test_antipode_is_inverse_permutation_on_group_algebra():
    h = gen_group_algebra(S3)
    for i in range(6):
        col = [h.antipode.at(j, i) for j in range(6)]
        assert col.count(ONE) == 1
        j = col.index(ONE)
        assert S3.mul(i, j) == 0 and S3.mul(j, i) == 0


def test_checks_lower_each_presentation_once(monkeypatch):
    import hopfrec.hopf as hopf

    built = []

    class Counting(hopf._Views):
        def __init__(self, *parts):
            built.append(len(parts))
            super().__init__(*parts)

    monkeypatch.setattr(hopf, "_Views", Counting)
    h = gen_group_algebra(S3)
    assert all_pass(h) and all_pass(h)
    assert built == [1, 4]  # the algebra's views, then the Hopf algebra's
