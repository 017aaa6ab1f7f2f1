"""Pentagon, tensor-structure, and duality verifiers.

Pointed categories double as oracles: with all multiplicities 1 the pentagon
equation collapses to the 3-cocycle identity, which a brute-force scan can
check independently of any matrix plumbing.
"""

from itertools import product

import pytest

from hopfrec.errors import NonInvertibleJ, NonRigid, NotACocycle, ShapeError
from hopfrec.examples import gen_group_algebra, gen_pointed_category, gen_pointed_fiber
from hopfrec.fusion import (
    FiberData,
    FusionSkeleton,
    compute_delta,
    verify_category,
    verify_duality,
    verify_pentagon,
    verify_tensorator,
)
from hopfrec.groups import cyclic_group, symmetric_group
from hopfrec.matrices import Matrix
from hopfrec.scalars import ONE, Scalar, sc

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)


def omega_sign(a, b, c):
    return sc(-1) if a == b == c == 1 else ONE


def test_pointed_z2_pentagon():
    assert verify_pentagon(gen_pointed_category(Z2)).passed
    assert verify_pentagon(gen_pointed_category(Z2, omega_sign)).passed


def first_cocycle_failure(g, w):
    """The first (a, b, c, d) of the brute-force Scalar scan, or None."""
    n, m = g.order, g.mul
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if w(m(a, b), c, d) * w(a, b, m(c, d)) != w(a, b, c) * w(a, m(b, c), d) * w(b, c, d):
                        return (a, b, c, d)
    return None


def test_cocycle_validation():
    with pytest.raises(NotACocycle, match="not normalized"):
        gen_pointed_category(Z2, lambda a, b, c: sc(-1) if (a, b, c) == (1, 0, 1) else ONE)
    # zeta4^(a b c^2) is normalized but its cocycle defect is zeta4^(2abcd)
    z = Scalar.zeta(4)
    with pytest.raises(NotACocycle, match="cocycle identity"):
        gen_pointed_category(Z4, lambda a, b, c: z ** (a * b * c * c))


def test_omega_dict_without_a_triple_is_a_shape_error():
    with pytest.raises(ShapeError, match=r"omega has no value at \(0, 0, 1\)"):
        gen_pointed_category(Z2, {(0, 0, 0): 1})


@pytest.mark.parametrize(
    "g, w",
    [
        (Z4, lambda a, b, c: Scalar.zeta(4) ** (a * b * c * c)),
        (Z4, lambda a, b, c: Scalar.rational(3, 2) if (a, b, c) == (2, 3, 1) else ONE),
        (cyclic_group(6), lambda a, b, c: Scalar.zeta(3) ** (a * b * c) * (sc(2) if a == b == c == 5 else ONE)),
    ],
)
def test_cocycle_witness_is_the_first_failure_of_the_scalar_scan(g, w):
    with pytest.raises(NotACocycle) as exc:
        gen_pointed_category(g, w)
    assert exc.value.witness == first_cocycle_failure(g, w)
    assert str(exc.value) == f"omega fails the cocycle identity at {exc.value.witness}"


def pointed_skeleton_unchecked(g, w):
    """Same construction as the generator but without cocycle validation,
    so broken recoordinatization data can reach verify_pentagon."""
    n = g.order
    fusion = [
        [[1 if g.mul(a, b) == c else 0 for c in range(n)] for b in range(n)]
        for a in range(n)
    ]
    fmat = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                fmat[(a, b, c, g.mul(g.mul(a, b), c))] = Matrix(1, 1, [w(a, b, c)])
    return FusionSkeleton(
        rank=n,
        fusion=fusion,
        dual=tuple(g.inv(a) for a in range(n)),
        F=fmat,
        unit=0,
    )


def assert_failures_match_cocycle_scan(g, w):
    """verify_pentagon's failing tuples on the pointed skeleton of w are
    the (a, b, c, d) of a brute-force Scalar scan of the cocycle identity
    over all order^4, unit slots included, each with total abcd."""
    rep = verify_pentagon(pointed_skeleton_unchecked(g, w))
    assert not rep.passed

    # independent oracle: brute-force the cocycle identity
    m, bad = g.mul, set()
    for a, b, c, d in product(range(g.order), repeat=4):
        lhs = w(m(a, b), c, d) * w(a, b, m(c, d))
        rhs = w(a, b, c) * w(a, m(b, c), d) * w(b, c, d)
        if lhs != rhs:
            bad.add((a, b, c, d))
    got = {f.index[:4] for f in rep.failures}
    assert got == bad
    # every reported tuple carries the forced target simple abcd
    for f in rep.failures:
        a, b, c, d, tot = f.index
        assert tot == m(m(m(a, b), c), d)


def test_pentagon_failures_match_cocycle_scan():
    z = Scalar.zeta(4)
    assert_failures_match_cocycle_scan(Z4, lambda a, b, c: z ** (a * b * c * c))


def test_pentagon_failures_match_cocycle_scan_on_z8_at_conductor_8():
    """The workload's size and conductor: a normalized omega on Z/8 with
    values in Q(zeta_8) that is not a cocycle, scanned over all 4,096
    quadruples."""
    z = Scalar.zeta(8)
    assert_failures_match_cocycle_scan(cyclic_group(8), lambda a, b, c: z ** (a * b * c * c))


def test_cyclotomic_cocycle_on_z4():
    # the standard generator of the third cohomology of Z/4:
    # omega(a,b,c) = zeta4^(a * floor((b+c)/4))
    z = Scalar.zeta(4)

    def w(a, b, c):
        return z ** (a * ((b + c) // 4))

    skel = gen_pointed_category(Z4, w)  # validates the cocycle identity
    assert verify_pentagon(skel).passed
    assert any(
        not m.at(0, 0).is_rational() for m in skel.F.values()
    ), "expected genuinely cyclotomic F entries"


def test_skeleton_shape_validation():
    good = gen_pointed_category(Z2)
    with pytest.raises(ShapeError, match="F keys mismatch"):
        FusionSkeleton(2, good.fusion, good.dual, 0, F=dict(list(good.F.items())[:-1]))
    bad_f = dict(good.F)
    bad_f[(1, 1, 0, 0)] = Matrix(1, 1, [sc(2)])  # unit in slot c must act as identity
    with pytest.raises(ShapeError, match="identity"):
        FusionSkeleton(2, good.fusion, good.dual, 0, F=bad_f)
    good4 = gen_pointed_category(Z4)
    with pytest.raises(ShapeError, match="involution"):
        FusionSkeleton(4, good4.fusion, (0, 2, 3, 1), 0, F=good4.F)
    with pytest.raises(ShapeError, match="permutation"):
        FusionSkeleton(2, good.fusion, (0, 0), 0, F=good.F)
    # non-associative multiplicities make the two F-basis sizes disagree
    fusion = [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]
    fusion[1][1][1] = 1  # g x g = e + g while e stays strict
    with pytest.raises(ShapeError):
        FusionSkeleton(2, fusion, (0, 1), 0, F=good.F)


def test_tensorator_trivial_fiber():
    skel = gen_pointed_category(Z2)
    fiber = gen_pointed_fiber(Z2)
    assert verify_tensorator(skel, fiber).passed


def test_tensorator_unit_check():
    skel = gen_pointed_category(Z2)
    j = {k: Matrix.identity(1) for k in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    j[(0, 1)] = Matrix(1, 1, [sc(3)])
    rep = verify_tensorator(skel, FiberData(dims=(1, 1), J=j))
    assert not rep.passed
    unit_hits = {f.index for f in rep.failures if f.check == "unit-left"}
    assert unit_hits == {(1,)}


def test_tensorator_iota_scales_unit_blocks():
    skel = gen_pointed_category(Z2)
    fiber = gen_pointed_fiber(Z2, iota=sc(2))
    assert verify_tensorator(skel, fiber).passed
    assert verify_duality(skel, fiber).passed


def test_singular_j_raises():
    skel = gen_pointed_category(Z2)
    j = {k: Matrix.identity(1) for k in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    j[(1, 1)] = Matrix.zeros(1, 1)
    with pytest.raises(NonInvertibleJ):
        verify_tensorator(skel, FiberData(dims=(1, 1), J=j))


def test_duality_detects_scaled_copairing():
    skel = gen_pointed_category(Z2)
    fiber = FiberData(
        dims=(1, 1),
        J={k: Matrix.identity(1) for k in [(0, 0), (0, 1), (1, 0), (1, 1)]},
        coev_coeff=((sc(2),), (sc(2),)),
    )
    rep = verify_duality(skel, fiber)
    assert not rep.passed
    assert {f.check for f in rep.failures} == {"zigzag-qp", "zigzag-pq"}


def test_zero_pairing_fails_zigzags_and_blocks_delta():
    skel = gen_pointed_category(Z2)
    fiber = FiberData(
        dims=(1, 1),
        J={k: Matrix.identity(1) for k in [(0, 0), (0, 1), (1, 0), (1, 1)]},
        ev_coeff=((sc(0),), (sc(0),)),
    )
    rep = verify_duality(skel, fiber)
    assert not rep.passed
    with pytest.raises(NonRigid, match="singular"):
        compute_delta(skel, fiber)


def test_verify_category_shapes():
    skel = gen_pointed_category(Z2)
    reports = verify_category(skel)
    assert [r.name for r in reports] == ["pentagon"]
    reports = verify_category(skel, gen_pointed_fiber(Z2))
    assert [r.name for r in reports] == ["pentagon", "tensor-structure", "duality"]
    assert all(r.passed for r in reports)


def test_skeletalized_rep_s3_passes_and_has_invertible_delta():
    from hopfrec.examples import EXAMPLES
    from hopfrec.repcat import skeletalize

    h = gen_group_algebra(symmetric_group(3))
    mods = EXAMPLES["ks3-modules"][1]()
    skel, fiber = skeletalize(h, mods)
    assert all(r.passed for r in verify_category(skel, fiber))
    deltas = compute_delta(skel, fiber)
    two_dim = [a for a, d in enumerate(fiber.dims) if d == 2]
    assert len(two_dim) == 1
    d = deltas[two_dim[0]]
    assert d.rows == 2 and d.cols == 2
    assert not d.det().is_zero()
