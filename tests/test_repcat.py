"""Module categories over a presented Hopf algebra: Hom spaces, tensor
decompositions, skeletalization, and the reconstruction round trip."""

import dataclasses
import sys

import pytest

from hopfrec.errors import DecompositionGap
from hopfrec.examples import EXAMPLES, gen_function_algebra, gen_group_algebra
from hopfrec.fusion import verify_category
from hopfrec.groups import cyclic_group, direct_product, symmetric_group
from hopfrec.matrices import Matrix, mat_inverse
from hopfrec.repcat import (
    ModuleRep,
    _intertwiner_constraint,
    decompose,
    dual_module,
    gamma_roundtrip,
    hom_space,
    skeletalize,
    tensor_module,
    trivial_module,
    verify_irreps,
)
from hopfrec.scalars import sc

S3 = symmetric_group(3)
KS3 = gen_group_algebra(S3)


def s3_modules():
    return EXAMPLES["ks3-modules"][1]()


def test_verify_irreps_s3():
    assert verify_irreps(KS3.alg, s3_modules()).passed


def test_verify_irreps_flags_duplicates_and_gaps():
    triv, sgn, std = s3_modules()
    rep = verify_irreps(KS3.alg, [triv, std, std])
    names = {f.check for f in rep.failures}
    assert "distinct" in names  # std appears twice
    assert "complete" in names  # 1 + 4 + 4 != 6
    assert rep.failures  # and nothing passed silently


def test_hom_space_character_oracle():
    triv, sgn, std = s3_modules()
    assert len(hom_space(triv, sgn)) == 0
    assert len(hom_space(std, std)) == 1
    t = tensor_module(KS3, std, std)
    # chi(std x std) = chi_triv + chi_sgn + chi_std, so each Hom is a line
    for irr in (triv, sgn, std):
        assert len(hom_space(irr, t)) == 1
    # and every basis element returned is an actual intertwiner
    for m in hom_space(std, t):
        for i in range(6):
            assert t.action[i] * m == m * std.action[i]


def test_hom_space_dim_is_basis_independent():
    triv, sgn, std = s3_modules()
    g = Matrix.from_rows([[1, 1], [0, 1]])
    conj = ModuleRep(
        dim=2,
        action=tuple(mat_inverse(g) * a * g for a in std.action),
        name="std-conj",
    )
    t = tensor_module(KS3, std, std)
    assert len(hom_space(conj, t)) == len(hom_space(std, t))
    assert len(hom_space(conj, conj)) == 1


def test_intertwiner_constraint_is_the_kron_form():
    # hom_space builds act_w (x) I - I (x) act_v^T entry by entry
    mods = s3_modules()
    for v in mods:
        for w in mods:
            iv, iw = Matrix.identity(v.dim), Matrix.identity(w.dim)
            for av, aw in zip(v.action, w.action):
                got = _intertwiner_constraint(av, aw)
                assert got == aw.kron(iv) - iw.kron(av.transpose())
                assert {e.conductor for e in got.entries} == {1}


def _promoted(v: ModuleRep) -> ModuleRep:
    act = tuple(Matrix(a.rows, a.cols, [e.promote(2) for e in a.entries]) for a in v.action)
    return ModuleRep(v.dim, act, v.name)


def test_hom_space_same_on_rational_and_scalar_paths():
    # conductor 2 is still Q but takes the Scalar loops, so the canonical
    # bases must come out identical
    h = gen_group_algebra(symmetric_group(4))
    irreps = EXAMPLES["ks4-modules"][1]()
    mods = irreps + [tensor_module(h, irreps[3], irreps[4])]
    twins = [_promoted(v) for v in mods]
    for v, pv in zip(irreps, twins):
        for w, pw in zip(mods, twins):
            basis = hom_space(v, w)
            assert basis == hom_space(pv, pw)
            assert all(e.conductor == 1 for t in basis for e in t.entries)
    assert [len(hom_space(v, mods[-1])) for v in irreps] == [0, 1, 1, 1, 1]


def test_tensor_with_trivial_module():
    triv, sgn, std = s3_modules()
    t = tensor_module(KS3, std, trivial_module(KS3))
    # V x 1 realized on the same underlying space: actions match entrywise
    assert t.dim == std.dim
    assert all(t.action[i] == std.action[i] for i in range(6))


def test_tensor_module_literal_associativity():
    triv, sgn, std = s3_modules()
    lhs = tensor_module(KS3, tensor_module(KS3, std, sgn), std)
    rhs = tensor_module(KS3, std, tensor_module(KS3, sgn, std))
    assert lhs.dim == rhs.dim == 4
    assert all(lhs.action[i] == rhs.action[i] for i in range(6))


def test_dual_module_of_std_is_std():
    triv, sgn, std = s3_modules()
    d = dual_module(KS3, std)
    assert d.dim == 2
    assert len(hom_space(d, std)) == 1


def test_decompose_std_squared():
    triv, sgn, std = s3_modules()
    t = tensor_module(KS3, std, std)
    dec = decompose(t, [triv, sgn, std])
    assert dec.mult == (1, 1, 1)
    # tau conjugates the tensor action into block-diagonal form; check one
    tau = dec.tau
    assert tau.rows == 4 and not tau.det().is_zero()


def test_decompose_needs_complete_family():
    triv, sgn, std = s3_modules()
    t = tensor_module(KS3, std, std)
    with pytest.raises(DecompositionGap):
        decompose(t, [triv, sgn])


def test_skeletalize_kz2_is_trivial_pointed():
    h = gen_group_algebra(cyclic_group(2))
    mods = EXAMPLES["kz2-modules"][1]()
    skel, fiber = skeletalize(h, mods)
    assert skel.rank == 2
    assert fiber.dims == (1, 1)
    assert fiber.iota == sc(1)
    for m in skel.F.values():
        assert m == Matrix.identity(1)
    for j in fiber.J.values():
        assert j == Matrix.identity(1)
    assert all(r.passed for r in verify_category(skel, fiber))


def test_gamma_roundtrip_kz2():
    h = gen_group_algebra(cyclic_group(2))
    rep, gamma = gamma_roundtrip(h, EXAMPLES["kz2-modules"][1]())
    assert rep.passed, [f.line() for f in rep.failures]
    # gamma sends e to (1,1) and g to (1,-1): the character table
    assert gamma == Matrix.from_rows([[1, 1], [1, -1]])


def test_gamma_roundtrip_kz2z2():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    h = gen_group_algebra(g)
    rep, gamma = gamma_roundtrip(h, EXAMPLES["kz2z2-modules"][1]())
    assert rep.passed
    assert gamma.rows == 4 and not gamma.det().is_zero()


def test_gamma_roundtrip_fun_s3():
    h = gen_function_algebra(S3)
    rep, gamma = gamma_roundtrip(h, EXAMPLES["fun-s3-modules"][1]())
    assert rep.passed, [f.line() for f in rep.failures]
    assert gamma.rows == 6


def test_gamma_roundtrip_ks4():
    # largest shipped example: 24-dim algebra, irrep dims 1,1,2,3,3
    h = gen_group_algebra(symmetric_group(4))
    rep, gamma = gamma_roundtrip(h, EXAMPLES["ks4-modules"][1]())
    assert rep.passed, [f.line() for f in rep.failures]
    assert gamma.rows == 24


def test_gamma_roundtrip_checks_category_data_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return verify_category(*args, **kwargs)

    # every hopfrec module that binds verify_category by name
    for name, mod in list(sys.modules.items()):
        if name.startswith("hopfrec") and getattr(mod, "verify_category", None) is verify_category:
            monkeypatch.setattr(mod, "verify_category", counted)
    rep, gamma = gamma_roundtrip(KS3, s3_modules())
    assert rep.passed and gamma.rows == 6
    assert len(calls) == 1
