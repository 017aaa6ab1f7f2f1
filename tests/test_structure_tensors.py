"""Structure tensors held as their nonzero entries: no pipeline derives a
dense plane, and a presentation rebuilt from its derived dense form is the
same presentation, with the same views and the same bytes."""

import pathlib

import pytest

from hopfrec.cli import main
from hopfrec.examples import EXAMPLES, gen_group_algebra
from hopfrec.groups import cyclic_group
from hopfrec.hopf import AlgebraPresentation, HopfPresentation, StructureTensor
from hopfrec.reconstruct import reconstruct_hopf
from hopfrec.repcat import gamma_roundtrip, skeletalize
from hopfrec.serialize import dumps
from test_generators import cyclic_characters

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def no_dense(monkeypatch):
    """Every dense read of a structure tensor (t[i], iteration) goes through
    StructureTensor.plane, which now raises."""

    def plane(self, i):
        raise AssertionError(f"dense plane {i} derived")

    monkeypatch.setattr(StructureTensor, "plane", plane)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    assert code == 0, cap.out + cap.err


@pytest.mark.parametrize("name", ["ds3", "ks4"])
def test_check_hopf_derives_no_dense_plane(name, no_dense, capsys):
    run(capsys, "check-hopf", GOLDEN / f"{name}.json")


@pytest.mark.parametrize("name", ["ks3", "fun-s3"])
def test_repcat_roundtrip_and_reconstruct_derive_no_dense_plane(name, no_dense, capsys, tmp_path):
    hopf, mods = GOLDEN / f"{name}.json", GOLDEN / f"{name}-modules.json"
    skel = tmp_path / "skel.json"
    run(capsys, "repcat", hopf, mods, "-o", skel)
    run(capsys, "roundtrip", hopf, mods)
    run(capsys, "reconstruct", skel, tmp_path / "skel.fiber.json", "-o", tmp_path / "rebuilt.json")


def test_gamma_roundtrip_derives_no_dense_plane(no_dense):
    rep, _ = gamma_roundtrip(EXAMPLES["ks4"][1](), EXAMPLES["ks4-modules"][1]())
    assert rep.passed


def rebuilt(h, mods):
    return reconstruct_hopf(*skeletalize(h, mods, verify=False), verify=False).hopf


CASES = {name: fac for name, (kind, fac) in EXAMPLES.items() if kind == "hopf"}
CASES["rebuilt-ks3"] = lambda: rebuilt(EXAMPLES["ks3"][1](), EXAMPLES["ks3-modules"][1]())
CASES["rebuilt-ks4"] = lambda: rebuilt(EXAMPLES["ks4"][1](), EXAMPLES["ks4-modules"][1]())
CASES["rebuilt-kz8"] = lambda: rebuilt(gen_group_algebra(cyclic_group(8)), cyclic_characters(8))


def dense_twin(h: HopfPresentation) -> HopfPresentation:
    """h rebuilt from the dense nested lists that its tensors derive."""

    def dense(t):
        return [[list(row) for row in plane] for plane in t]

    return HopfPresentation(AlgebraPresentation(h.dim, dense(h.alg.mult), h.alg.unit), dense(h.comult), h.counit, h.antipode)


def views(v) -> tuple:
    return v.m, v.dl, v.s, [(x.conductor, x.coeffs) for x in v.values], v.D, v.dense


@pytest.mark.parametrize("name", sorted(CASES))
def test_dense_input_gives_the_same_presentation_views_and_bytes(name):
    """Failing-tuple order rests on the views: dense input is scanned into
    the nonzeros that the builders and `_assemble` store directly."""
    h = CASES[name]()
    twin = dense_twin(h)
    assert twin == h
    assert twin.alg.mult.planes == h.alg.mult.planes and twin.comult.planes == h.comult.planes
    assert views(twin.alg._views) == views(h.alg._views)
    assert views(twin._views) == views(h._views)
    assert dumps(twin) == dumps(h)
