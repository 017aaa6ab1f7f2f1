"""Skeletal data read off the fusion rules N and the tensor structure J.

`repcat._skeletalize` takes dual[a] as the first b with N[a][b][unit] >= 1
and reads no antipode; `fusion.tree_maps` realizes every tree off the
lowered rows of J and returns the trees of each total as one flat matrix,
one row per tree.  Each is checked against a test-local copy of what it
replaces: the dual found through `dual_module` and `hom_space`, and one
product per tree on copied rows of J.  The serialized skeleton and fiber
of every family here are pinned by digest.  A presentation whose antipode
is wrong skeletalizes to the category of its bialgebra, and the round trip
names the antipode where it fails.
"""

import dataclasses
import hashlib
import itertools
from functools import lru_cache
from math import lcm

import pytest

from hopfrec import fusion, repcat, serialize
from hopfrec.examples import EXAMPLES, gen_group_algebra
from hopfrec.fusion import f_left_basis, f_right_basis, tree_maps, verify_tensorator
from hopfrec.groups import cyclic_group
from hopfrec.matrices import Matrix
from hopfrec.reconstruct import reconstruct_hopf, zeta_modules
from hopfrec.repcat import _skeletalize, dual_module, gamma_roundtrip, hom_space, skeletalize
from test_generators import cyclic_characters
from test_tensorator_bumps import alternating_group_4, modules_a4

FAMILIES = [name for name, (kind, _) in EXAMPLES.items() if kind == "hopf" and f"{name}-modules" in EXAMPLES]


@lru_cache(maxsize=None)
def family(name):
    if name.startswith("rebuilt-"):
        recon = reconstruct_hopf(*skeletal(name.removeprefix("rebuilt-")), verify=False)
        return recon.hopf, zeta_modules(recon)
    if name == "ka4":
        g = alternating_group_4()
        return gen_group_algebra(g), modules_a4(g)
    if name == "kz12":
        return gen_group_algebra(cyclic_group(12)), cyclic_characters(12)
    return EXAMPLES[name][1](), EXAMPLES[f"{name}-modules"][1]()


@lru_cache(maxsize=None)
def skeletal(name):
    return _skeletalize(*family(name))


def dual_through_the_antipode(h, modules) -> tuple:
    """The dual search that skeletalize made before it read the fusion
    rules: dual_module, then the first b in ascending order with equal dim
    and a nonzero hom_space."""
    out = []
    for v in modules:
        dm = dual_module(h, v)
        out.append(next(b for b, w in enumerate(modules) if w.dim == dm.dim and hom_space(dm, w)))
    return tuple(out)


@pytest.mark.parametrize("name", FAMILIES + ["ka4"])
def test_fusion_rule_duals_are_the_antipode_duals(name):
    skel, _ = skeletal(name)
    assert skel.dual == dual_through_the_antipode(*family(name))


@pytest.mark.parametrize("name", FAMILIES)
def test_skeletalize_reads_no_antipode(name, monkeypatch):
    h, mods = family(name)
    skel, fiber = skeletal(name)

    def no_dual_module(*args):
        raise AssertionError("dual_module called")

    monkeypatch.setattr(repcat, "dual_module", no_dual_module)
    zero_s = dataclasses.replace(h, antipode=Matrix.zeros(h.dim, h.dim))
    got_skel, got_fiber = _skeletalize(zero_s, mods)
    assert serialize.dumps(got_skel) == serialize.dumps(skel)
    assert serialize.dumps(got_fiber) == serialize.dumps(fiber)


def trees_one_product_each(N, J, dims, a, b, c) -> list:
    """(d, left, right) with one matrix per tree: copied rows of J[(e, c)]
    times copy mu of e in J[(a, b)] (x) I, resp. rows of J[(a, f)] times
    I (x) copy rho of f in J[(b, c)]."""

    def copy(j, n_xy, x, mu):
        off = sum(n_xy[y] * dims[y] for y in range(x)) + mu * dims[x]
        return Matrix.from_rows(j.to_rows()[off : off + dims[x]])

    ida, idc = Matrix.identity(dims[a]), Matrix.identity(dims[c])
    out = []
    for d in range(len(N)):
        left = [
            copy(J[(e, c)], N[e][c], d, nu) * copy(J[(a, b)], N[a][b], e, mu).kron(idc)
            for e, mu, nu in f_left_basis(N, a, b, c, d)
        ]
        right = [
            copy(J[(a, f)], N[a][f], d, sigma) * ida.kron(copy(J[(b, c)], N[b][c], f, rho))
            for f, rho, sigma in f_right_basis(N, a, b, c, d)
        ]
        if left or right:
            out.append((d, left, right))
    return out


def concatenated(trees: list) -> list:
    """The trees' entries in order, promoted to the lcm of their conductors."""
    n = lcm(*(m._n for m in trees))
    return [x.promote(n) for m in trees for x in m.entries]


def as_cells(xs) -> list:
    return [(x.conductor, str(x)) for x in xs]


@pytest.mark.parametrize("name", ["ks3", "dz2", "ks4", "ka4"])
def test_flat_trees_hold_the_per_tree_products(name):
    skel, fiber = skeletal(name)
    dims = fiber.dims
    for a, b, c in itertools.product(range(skel.rank), repeat=3):
        got = tree_maps(skel.fusion, fiber.J, dims, a, b, c)
        want = trees_one_product_each(skel.fusion, fiber.J, dims, a, b, c)
        assert [d for d, _, _ in got] == [d for d, _, _ in want]
        for (d, left, right), (_, wl, wr) in zip(got, want):
            width = dims[d] * dims[a] * dims[b] * dims[c]
            for flat, trees in ((left, wl), (right, wr)):
                assert (flat.rows, flat.cols) == (len(trees), width)
                assert list(flat.entries) == concatenated(trees)
                assert as_cells(flat.entries) == as_cells(concatenated(trees))


@pytest.mark.parametrize("name", ["ks3", "ka4"])
def test_tensorator_multiplies_no_kron_and_no_identity_by_f(name, monkeypatch):
    # the trees are realized beforehand, so only F * left is counted
    skel, fiber = skeletal(name)
    triples = itertools.product(range(skel.rank), repeat=3)
    trees = {t: tree_maps(skel.fusion, fiber.J, fiber.dims, *t) for t in triples}
    monkeypatch.setattr(fusion, "tree_maps", lambda N, J, dims, a, b, c: trees[a, b, c])
    made = []
    real_kron, real_identity = Matrix.kron, Matrix.identity
    monkeypatch.setattr(Matrix, "kron", lambda self, other: made.append("kron") or real_kron(self, other))
    monkeypatch.setattr(Matrix, "identity", classmethod(lambda cls, n: made.append("identity") or real_identity(n)))
    assert fusion.verify_tensorator(skel, fiber).passed
    # the unit checks build one identity per simple, and nothing else does
    assert made == ["identity"] * skel.rank


def test_a_passing_tensorator_builds_no_scalar_tree_matrix(monkeypatch):
    # fun-s3 decides F * left == right on the lowerings of F and of the
    # trees, which tree_maps builds through Matrix._from_low: the only
    # matrices made otherwise are the unit checks' iota * I, and no matrix
    # is multiplied by a matrix
    skel, fiber = skeletal("fun-s3")
    made, depth = [], [0]
    real_of, real_from_low, real_mul = Matrix._of.__func__, Matrix._from_low.__func__, Matrix.__mul__

    def of(cls, rows, cols, entries):
        out = real_of(cls, rows, cols, entries)
        if not depth[0]:
            made.append((rows, cols))
        return out

    def from_low(cls, *args):
        depth[0] += 1
        try:
            return real_from_low(cls, *args)
        finally:
            depth[0] -= 1

    def mul(self, other):
        assert not isinstance(other, Matrix), "a matrix product"
        return real_mul(self, other)

    monkeypatch.setattr(Matrix, "_of", classmethod(of))
    monkeypatch.setattr(Matrix, "_from_low", classmethod(from_low))
    monkeypatch.setattr(Matrix, "__mul__", mul)
    assert verify_tensorator(skel, fiber).passed
    assert made == [(d, d) for d in fiber.dims]


# sha256 of dumps(skel), a newline and dumps(fiber), for skeletalize(h,
# mods); K[A4] and its rebuilt twin have F and J at conductor 3, the other
# families at conductor 1 (the characters of K[Z/12] too: their J and F
# are 1x1 rationals)
SKELETON_DIGESTS = {
    "kz2": "bfb69aa33659bd05c71a1f6f6d588672791891b95a0f91c88fc5d22521245a85",
    "kz2z2": "dab68f0c9805b82000c6390c571c4e989b14f53d89aff9a6dddf747675eb2d71",
    "ks3": "2f7ad635cda85687e1bf980598680cd65a110f7be32daa7d3aca083e2270542e",
    "ks4": "aa89f35b59273123d6d4f2422a3ce8f42b205b414442f1d29be47f2c98165b95",
    "fun-z2": "a8e4382373409f9a766c39df4a77b149565d13fa6955d90d614afae41b92d9ea",
    "fun-s3": "19d8693aa7072fb7259038b6719adedc5b24cdd9a7198aa13dc89244dd47dcb7",
    "dz2": "64523391d14829f241db5d5dd0eca28c8a7612b4febbac666baace4e4e5190cf",
    "ka4": "3c3c3d07b29bcf738e6c11be65cce4347863db871f190b2fc7149f023ad3eabb",
    "rebuilt-ks4": "aa89f35b59273123d6d4f2422a3ce8f42b205b414442f1d29be47f2c98165b95",
    "rebuilt-ka4": "ce5e9d9673e3e871eb386695baf4c03399bc973d9f3a4d6c3f5f30fec63b79ca",
    "kz12": "0dccce480947c0311f64c2f3405b259b9e7d3505e23728dfa0aa636954e3582e",
}


@pytest.mark.parametrize("name", SKELETON_DIGESTS)
def test_serialized_skeletons_keep_their_digests(name):
    skel, fiber = skeletalize(*family(name))
    text = serialize.dumps(skel) + "\n" + serialize.dumps(fiber)
    assert hashlib.sha256(text.encode()).hexdigest() == SKELETON_DIGESTS[name]
    assert set(FAMILIES) <= set(SKELETON_DIGESTS)


def test_a_wrong_antipode_is_reported_by_the_round_trip():
    h, mods = family("ks3")
    bad = dataclasses.replace(h, antipode=Matrix.identity(h.dim))
    skel, fiber = skeletalize(bad, mods)
    good_skel, good_fiber = skeletalize(h, mods)
    assert serialize.dumps(skel) == serialize.dumps(good_skel)
    assert serialize.dumps(fiber) == serialize.dumps(good_fiber)
    rep, gamma = gamma_roundtrip(bad, mods)
    assert sorted({f.check for f in rep.failures}) == ["morphism-antipode"]
    # the two 3-cycles, which the true antipode swaps
    assert [f.index for f in rep.failures] == [(3,), (4,)]
    assert rep.flags["bijective"] is True
    assert verify_tensorator(skel, fiber).passed
