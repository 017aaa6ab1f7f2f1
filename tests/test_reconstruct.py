"""Building a Hopf presentation from skeletal category data and back.

The two concrete anchors: pointed Z/2 data must reconstruct the function
algebra on Z/2 entrywise, and skeletalized group-algebra data must
reconstruct something isomorphic to the group algebra via the evaluation
map gamma.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfrec.reconstruct
import hopfrec.repcat
from hopfrec.errors import ReconstructionAxiomFailure, ShapeError, SkeletalizationFailure
from hopfrec.examples import (
    EXAMPLES,
    gen_function_algebra,
    gen_group_algebra,
    gen_pointed_category,
    gen_pointed_fiber,
)
from hopfrec.groups import cyclic_group, symmetric_group
from hopfrec.hopf import HopfPresentation, check_hopf_morphism, run_hopf_checks
from hopfrec.matrices import Matrix, block_diag, mat_inverse
from hopfrec.reconstruct import (
    endf_basis,
    endf_offsets,
    reconstruct_hopf,
    transport_along,
    transport_matrix,
    zeta_modules,
)
from hopfrec.reports import CheckReport
from hopfrec.repcat import (
    ModuleRep,
    SliceMorphismData,
    _roundtrip,
    gamma_roundtrip,
    skeletalize,
    verify_irreps,
)
from hopfrec.scalars import ONE, Scalar, sc
from test_hopf_morphism_bumps import gauge_case, gauge_eta
from test_sweedler_h4 import indecomposable_v, sweedler_h4

Z2 = cyclic_group(2)
S3 = symmetric_group(3)


def test_pointed_z2_reconstructs_function_algebra():
    skel = gen_pointed_category(Z2)
    fiber = gen_pointed_fiber(Z2)
    recon = reconstruct_hopf(skel, fiber)
    want = gen_function_algebra(Z2)
    got = recon.hopf
    assert got.alg.mult == want.alg.mult
    assert got.alg.unit == want.alg.unit
    assert got.comult == want.comult
    assert got.counit == want.counit
    assert got.antipode == want.antipode


def test_reconstruction_from_rep_z2_is_group_algebra():
    h = gen_group_algebra(Z2)
    skel, fiber = skeletalize(h, EXAMPLES["kz2-modules"][1]())
    recon = reconstruct_hopf(skel, fiber)
    # basis: one matrix unit per 1-dim block, e_+ then e_-
    assert recon.basis == ((0, 0, 0), (1, 0, 0))
    # Delta(e_+) = e_+ x e_+ + e_- x e_-  (image of (e + g)/2 in K[Z/2])
    d0 = recon.hopf.comult[0]
    assert d0[0][0] == ONE and d0[1][1] == ONE
    assert d0[0][1].is_zero() and d0[1][0].is_zero()
    assert recon.hopf.counit == (ONE, sc(0))
    # gamma is an explicit Hopf isomorphism onto the reconstruction
    m = Matrix.from_rows([[1, 1], [1, -1]])
    rep = check_hopf_morphism(h, recon.hopf, m)
    assert rep.passed, [f.line() for f in rep.failures]


def test_antipode_transports_group_inversion():
    h = gen_group_algebra(S3)
    mods = EXAMPLES["ks3-modules"][1]()
    skel, fiber = skeletalize(h, mods)
    recon = reconstruct_hopf(skel, fiber)
    _, gamma = gamma_roundtrip(h, mods)
    s = recon.hopf.antipode
    n = 6
    for g in range(n):
        img = Matrix.column([gamma.at(r, g) for r in range(n)])
        want = Matrix.column([gamma.at(r, S3.inv(g)) for r in range(n)])
        assert s * img == want


def test_zeta_modules_of_pointed_z2():
    recon = reconstruct_hopf(gen_pointed_category(Z2), gen_pointed_fiber(Z2))
    mods = zeta_modules(recon)
    assert [m.dim for m in mods] == [1, 1]
    assert verify_irreps(recon.hopf.alg, mods).passed


def test_zeta_modules_of_rep_s3():
    h = gen_group_algebra(S3)
    skel, fiber = skeletalize(h, EXAMPLES["ks3-modules"][1]())
    recon = reconstruct_hopf(skel, fiber)
    mods = zeta_modules(recon)
    assert sorted(m.dim for m in mods) == [1, 1, 2]
    assert verify_irreps(recon.hopf.alg, mods).passed


def test_incoherent_data_is_rejected():
    # nontrivial associator with the identity tensorator cannot satisfy
    # the compatibility hexagon, so reconstruction must refuse
    skel = EXAMPLES["vec-z2-omega"][1]()
    fiber = gen_pointed_fiber(Z2)
    with pytest.raises(ReconstructionAxiomFailure, match="coherence"):
        reconstruct_hopf(skel, fiber)


def test_reconstruct_verify_flag_still_checks_output():
    # verify=False skips the category precheck but the assembled Hopf data
    # of coherent input still passes the axiom suite
    skel = gen_pointed_category(Z2)
    fiber = gen_pointed_fiber(Z2)
    recon = reconstruct_hopf(skel, fiber, verify=False)
    assert all(r.passed for r in run_hopf_checks(recon.hopf))


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_endf_layout_is_a_pure_index_bijection(dims):
    basis = endf_basis(dims)
    offs = endf_offsets(dims)
    assert len(basis) == sum(d * d for d in dims)
    assert len(set(basis)) == len(basis)
    for pos, (a, i, j) in enumerate(basis):
        assert 0 <= i < dims[a] and 0 <= j < dims[a]
        assert pos == offs[a] + i * dims[a] + j


# -- transport along functor-shaped decomposition data -----------------------


def unit_inclusion(target_dims):
    # the simple of Vec maps to the first simple of the target
    mult = (tuple(1 if b == 0 else 0 for b in range(len(target_dims))),)
    return SliceMorphismData(mult=mult, tau=(Matrix.identity(target_dims[0]),))


def test_transport_identity_functor():
    dims = (1, 1)
    ident = SliceMorphismData(
        mult=((1, 0), (0, 1)), tau=(Matrix.identity(1), Matrix.identity(1))
    )
    eta = [Matrix(1, 1, [sc(5)]), Matrix(1, 1, [sc(7)])]
    assert transport_along(ident, eta) == eta
    assert transport_matrix(ident, dims) == Matrix.identity(2)


def test_transport_composition_on_swap_chain():
    # Vec -> Rep(Z/2) -> Rep(Z/2), the second leg swapping the characters
    t1 = SliceMorphismData(mult=((1, 0),), tau=(Matrix.identity(1),))
    t2 = SliceMorphismData(
        mult=((0, 1), (1, 0)),
        tau=(Matrix(1, 1, [sc(2)]), Matrix(1, 1, [sc(3)])),
    )
    tc = SliceMorphismData(mult=((0, 1),), tau=(Matrix(1, 1, [sc(2)]),))
    eta = [Matrix(1, 1, [sc(5)]), Matrix(1, 1, [sc(7)])]
    # contravariant: the composite transports target data through t2 first
    via_chain = transport_along(t1, transport_along(t2, eta))
    assert via_chain == transport_along(tc, eta)


def test_transport_unital_and_multiplicative():
    rng = random.Random(2)
    dims = (1, 1, 2)
    tau = Matrix.from_rows(
        [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    )
    assert not tau.det().is_zero()
    t = SliceMorphismData(mult=((1, 0, 1),), tau=(tau,))

    def rnd_eta():
        return [
            Matrix.from_rows([[rng.randint(-3, 3)]]),
            Matrix.from_rows([[rng.randint(-3, 3)]]),
            Matrix.from_rows([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]),
        ]

    ident = [Matrix.identity(1), Matrix.identity(1), Matrix.identity(2)]
    assert transport_along(t, ident) == [Matrix.identity(3)]
    for _ in range(5):
        eta, zeta = rnd_eta(), rnd_eta()
        prod = [e * z for e, z in zip(eta, zeta)]
        lhs = transport_along(t, prod)
        rhs = [a * b for a, b in zip(transport_along(t, eta), transport_along(t, zeta))]
        assert lhs == rhs


def test_transport_to_counit_on_group_algebra():
    # the unit functor Vec -> Rep(G) transports the canonical action of H
    # on its modules down to the counit
    h = gen_group_algebra(S3)
    mods = EXAMPLES["ks3-modules"][1]()
    _, gamma = gamma_roundtrip(h, mods)
    dims = tuple(m.dim for m in mods)
    offs = endf_offsets(dims)
    t = unit_inclusion(dims)
    for x in range(6):
        # slice the column gamma(e_x) back into its diagonal blocks
        col = [gamma.at(r, x) for r in range(6)]
        eta = []
        for a, d in enumerate(dims):
            eta.append(Matrix(d, d, [col[offs[a] + i * d + j] for i in range(d) for j in range(d)]))
        out = transport_along(t, eta)
        assert out == [Matrix(1, 1, [h.counit[x]])]


def test_transport_shape_mismatch():
    t = SliceMorphismData(mult=((1, 1),), tau=(Matrix.identity(3),))
    eta = [Matrix.identity(1), Matrix.identity(1)]  # total size 2, tau wants 3
    with pytest.raises(ShapeError):
        transport_along(t, eta)


def test_transport_matrix_matches_elementwise_transport():
    rng = random.Random(4)
    tau = Matrix.from_rows([[1, 1], [0, 1]])
    t = SliceMorphismData(mult=((2,),), tau=(tau,))
    dims_in = (1,)
    tm = transport_matrix(t, dims_in)
    # columns of tm are the transports of the matrix-unit basis
    eta = [Matrix(1, 1, [ONE])]
    out = transport_along(t, eta)[0]
    flat = [out.at(i, j) for i in range(2) for j in range(2)]
    assert [tm.at(r, 0) for r in range(4)] == flat


def ks3_fiber():
    skel, fiber = skeletalize(EXAMPLES["ks3"][1](), EXAMPLES["ks3-modules"][1](), verify=False)
    assert skel.names == ("triv", "sgn", "std")
    return fiber


def test_transport_matrix_is_the_gauge_conjugation():
    # along the identity functor, tau = eta^-1 transports x to eta x eta^-1:
    # the Hopf isomorphism from rebuilt K[S3] to its rebuild along the gauge
    # eta; tau = eta transports back
    src, dst, conj = gauge_case()
    dims = ks3_fiber().dims
    eta = gauge_eta(dims)
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    there = transport_matrix(SliceMorphismData(ident, [mat_inverse(e) for e in eta]), dims)
    assert there == conj
    assert check_hopf_morphism(src, dst, there).passed
    back = transport_matrix(SliceMorphismData(ident, eta), dims)
    assert check_hopf_morphism(dst, src, back).passed


def test_transport_matrix_swapping_the_characters_is_no_hopf_map():
    # swapping triv and sgn, identity taus: bijective, and it moves the
    # counit, which reads the triv block, and so the comultiplication
    src, _, _ = gauge_case()
    dims = ks3_fiber().dims
    swap = SliceMorphismData(((0, 1, 0), (1, 0, 0), (0, 0, 1)), [Matrix.identity(d) for d in dims])
    rep = check_hopf_morphism(src, src, transport_matrix(swap, dims))
    assert rep.flags["bijective"]
    assert sorted({f.check for f in rep.failures}) == ["morphism-comultiplicative", "morphism-counit"]


def bumped_antipode(alg, comult, counit, antipode):
    """HopfPresentation with one antipode entry off by 1, to patch in for
    reconstruct's: gamma then fails the antipode law."""
    rows = antipode.to_rows()
    rows[0][0] = rows[0][0] + 1
    return HopfPresentation(alg, comult, counit, Matrix.from_rows(rows))


def test_hopf_axiom_failure_raises_from_both_entry_points(monkeypatch):
    # the assembled presentation is re-checked whether the category data was
    # checked by reconstruct_hopf or, in the round trip, by skeletalize; the
    # round trip re-checks it when transport along gamma cannot certify it,
    # here because the bumped rebuilt antipode fails the morphism report
    def failing(h):
        good, bad = CheckReport("algebra"), CheckReport("antipode")
        bad.add("antipode", (0,), "1", "2")
        return [good, bad]

    monkeypatch.setattr(hopfrec.reconstruct, "run_hopf_checks", failing)
    monkeypatch.setattr(hopfrec.reconstruct, "HopfPresentation", bumped_antipode)
    h, mods = gen_group_algebra(Z2), EXAMPLES["kz2-modules"][1]()
    skel, fiber = skeletalize(h, mods)
    for attempt in (lambda: reconstruct_hopf(skel, fiber), lambda: gamma_roundtrip(h, mods)):
        with pytest.raises(ReconstructionAxiomFailure, match="Hopf axioms") as err:
            attempt()
        assert [rep.name for rep in err.value.reports] == ["antipode"]
        assert [f.line() for f in err.value.reports[0].failures] == [
            f.line() for f in failing(h)[1].failures
        ]


def character_family(n):
    """K[Z/n] and its characters chi_s(t) = zeta_n^(s t)."""
    z = Scalar.zeta(n)
    mods = [ModuleRep(1, tuple(Matrix(1, 1, [z ** (s * t % n)]) for t in range(n))) for s in range(n)]
    return gen_group_algebra(cyclic_group(n)), mods


ROUND_TRIPS = {
    "kz2": lambda: (EXAMPLES["kz2"][1](), EXAMPLES["kz2-modules"][1]()),
    "ks3": lambda: (EXAMPLES["ks3"][1](), EXAMPLES["ks3-modules"][1]()),
    "ks4": lambda: (EXAMPLES["ks4"][1](), EXAMPLES["ks4-modules"][1]()),
    "kz5-characters": lambda: character_family(5),
}


@pytest.fixture
def sweeps(monkeypatch):
    """The calls the round trip makes to check_hopf_morphism."""
    seen = []
    monkeypatch.setattr(
        hopfrec.repcat, "check_hopf_morphism", lambda src, dst, m: seen.append(m) or check_hopf_morphism(src, dst, m)
    )
    return seen


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_a_certified_round_trip_runs_no_rebuilt_checks(monkeypatch, sweeps, name):
    def barred(hopf):
        raise AssertionError("the rebuilt side ran its Hopf checks")

    monkeypatch.setattr(hopfrec.reconstruct, "run_hopf_checks", barred)
    h, mods = ROUND_TRIPS[name]()
    rep, gamma, recon = _roundtrip(h, mods)
    assert rep.passed and rep.flags["bijective"], [f.line() for f in rep.failures]
    assert gamma.rows == gamma.cols == h.dim
    # the four laws and bijectivity hold by construction: no morphism sweep,
    # and no checker built the rebuilt side's views, not even check_algebra
    assert sweeps == []
    assert "_views" not in vars(recon.hopf) and "_views" not in vars(recon.hopf.alg)


def test_a_failing_antipode_identity_sweeps_once(sweeps):
    # K[S3] with S = id: S' gamma != gamma S, so the full sweep lists the
    # failing tuples, the two 3-cycles that S swaps
    h, mods = ROUND_TRIPS["ks3"]()
    h = dataclasses.replace(h, antipode=Matrix.identity(h.dim))
    rep, gamma, _ = _roundtrip(h, mods, verify=False)
    assert sweeps == [gamma]
    assert [f.line().split(":")[0] for f in rep.failures] == ["morphism-antipode at (3,)", "morphism-antipode at (4,)"]
    assert rep.flags == {"bijective": True}


def test_a_rank_deficient_family_stops_at_the_gate(monkeypatch, sweeps):
    # gamma is bijective once the gate passes, so a family whose gamma is not
    # (Sweedler's H4 on its 2-dim indecomposable module, rank 3 of 4) raises
    # at the gate, before anything is assembled or any morphism law is read
    def barred(*args):
        raise AssertionError("the round trip went past the gate")

    monkeypatch.setattr(hopfrec.reconstruct, "_assemble", barred)
    monkeypatch.setattr(hopfrec.repcat, "_decompositions", barred)
    with pytest.raises(SkeletalizationFailure, match="not a complete split irreducible family") as err:
        gamma_roundtrip(sweedler_h4(), [indecomposable_v()])
    assert err.value.report.lines()[1:] == ["  complete at (): rank of gamma = 3 != algebra dim = 4"]
    assert sweeps == []


def _failing_report(name):
    rep = CheckReport(name)
    rep.add(name, (0,), "1", "2")
    return rep


# each case removes one condition of the certificate: the module and name
# to patch and its stand-in, or None for the source's algebra verdict; the
# bialgebra verdict is the one generator sweep of repcat._decompositions;
# the morphism laws can fail only at the antipode, and bijectivity not at
# all past the gate (test_a_rank_deficient_family_stops_at_the_gate)
UNCERTIFIED = {
    "source-algebra": None,
    "source-bialgebra": (hopfrec.repcat, "_bialgebra_sweep", lambda v, rows, stop: _failing_report("bialgebra")),
    "source-antipode": (hopfrec.repcat, "check_antipode", lambda h: _failing_report("antipode")),
    "morphism-law": (hopfrec.reconstruct, "HopfPresentation", bumped_antipode),
}


@pytest.mark.parametrize("case", sorted(UNCERTIFIED))
def test_each_condition_of_the_transport_certificate_is_required(monkeypatch, case):
    # with any one condition missing the rebuilt side runs its checks, whose
    # failure (a stub here) raises as reconstruct_hopf would
    rebuilt = _failing_report("antipode")
    monkeypatch.setattr(hopfrec.reconstruct, "run_hopf_checks", lambda hopf: [CheckReport("algebra"), rebuilt])
    h, mods = gen_group_algebra(Z2), EXAMPLES["kz2-modules"][1]()
    if UNCERTIFIED[case] is None:
        vars(h.alg)["_gens"] = None  # as cached when check_algebra fails
    else:
        monkeypatch.setattr(*UNCERTIFIED[case])
    with pytest.raises(ReconstructionAxiomFailure, match="Hopf axioms") as err:
        gamma_roundtrip(h, mods)
    assert err.value.reports == [rebuilt]


@pytest.mark.parametrize("name", ["kz2", "ks3"])
def test_a_bumped_rebuilt_antipode_raises_the_rebuilt_reports(monkeypatch, name):
    # one rebuilt antipode entry off by 1: gamma fails the antipode law, so
    # the rebuilt checks run and their failing reports are raised
    monkeypatch.setattr(hopfrec.reconstruct, "HopfPresentation", bumped_antipode)
    h, mods = ROUND_TRIPS[name]()
    skel, fiber = skeletalize(h, mods)
    want = [r for r in run_hopf_checks(reconstruct_hopf(skel, fiber, verify=False).hopf) if not r.passed]
    assert [r.name for r in want] == ["antipode"]
    with pytest.raises(ReconstructionAxiomFailure, match="Hopf axioms") as err:
        gamma_roundtrip(h, mods)
    assert [r.name for r in err.value.reports] == ["antipode"]
    assert [f.line() for f in err.value.reports[0].failures] == [f.line() for f in want[0].failures]
