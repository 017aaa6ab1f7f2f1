"""Single-entry bumps of fiber functor tensor structures against
verify_tensorator, and digests of the skeletalized families.

Skeletalized K[S3], D(Z2) and K[A4], and the pointed Vec_Z/2 and Vec_Z/4
with their one dimensional fibers, have single J entries bumped by 2, -1,
zeta_3 and zeta_8.  The report lines (or the NonInvertibleJ message of a
bump that makes J singular) are pinned by `golden/tensorator-bumps.txt`,
together with the sha256 of the serialized skeleton and fiber of each
skeletalized family, whose unbumped coherence skeletalize verifies.
K[A4] over Q(zeta_3) has std (x) std = triv + omega + omega^2 + 2 std, so
its bumps run through both copies of std in a J block.

Regenerate the golden file with `python tests/test_tensorator_bumps.py`.
"""

import dataclasses
import hashlib
import pathlib
from functools import lru_cache

from hopfrec import serialize
from hopfrec.errors import NonInvertibleJ
from hopfrec.examples import EXAMPLES, gen_group_algebra, gen_pointed_category, gen_pointed_fiber
from hopfrec.fusion import verify_tensorator
from hopfrec.groups import (
    GroupTable,
    cyclic_group,
    perm_parity,
    s4_to_s3_quotient,
    standard_rep_matrix,
    symmetric_group,
)
from hopfrec.matrices import Matrix
from hopfrec.repcat import ModuleRep, skeletalize
from hopfrec.scalars import Scalar

GOLDEN = pathlib.Path(__file__).parent / "golden" / "tensorator-bumps.txt"

AMOUNTS = [("2", 2), ("-1", -1), ("zeta3", Scalar.zeta(3)), ("zeta8", Scalar.zeta(8))]
SKELETALIZED = ("ks3", "dz2", "ka4")
# K[A4] bumps: (J key, cell, index into AMOUNTS); simple 3 is std, and rows
# 3-5 and 6-8 of J[(3, 3)] are its two copies of std
KA4_BUMPS = [((3, 3), (7, 1), 0), ((3, 3), (4, 6), 2)]


def alternating_group_4() -> GroupTable:
    """A4 as the even permutations of S4, in the order of S4's elements."""
    s4 = symmetric_group(4)
    keep = [i for i, p in enumerate(s4.elements) if perm_parity(p) == 1]
    pos = {i: k for k, i in enumerate(keep)}
    table = [[pos[s4.mul(i, j)] for j in keep] for i in keep]
    return GroupTable(len(keep), table, name="A4", elements=tuple(s4.elements[i] for i in keep))


def modules_a4(g: GroupTable) -> list:
    """triv, omega, omega^2 and std.  A4 maps onto the 3-cycles of S3 by
    s4_to_s3_quotient; omega sends an element to zeta_3 to the power of its
    image, and std is the standard representation of S4 restricted to A4."""
    power = {(0, 1, 2): 0, (1, 2, 0): 1, (2, 0, 1): 2}
    k = [power[s4_to_s3_quotient(p)] for p in g.elements]
    z = Scalar.zeta(3)
    chars = [
        ModuleRep(1, tuple(Matrix(1, 1, [z ** (s * t % 3)]) for t in k), name)
        for s, name in ((0, "triv"), (1, "omega"), (2, "omega2"))
    ]
    std = ModuleRep(3, tuple(Matrix.from_rows(standard_rep_matrix(p)) for p in g.elements), "std")
    return chars + [std]


@lru_cache(maxsize=None)
def skeletalized(name):
    """(skeleton, fiber) of a family, with its coherence verified."""
    if name == "ka4":
        g = alternating_group_4()
        return skeletalize(gen_group_algebra(g), modules_a4(g), verify=True)
    return skeletalize(EXAMPLES[name][1](), EXAMPLES[f"{name}-modules"][1](), verify=True)


def pointed(n):
    return gen_pointed_category(cyclic_group(n)), gen_pointed_fiber(cyclic_group(n))


def cells(fiber):
    return [(key, (i, j)) for key, m in sorted(fiber.J.items()) for i in range(m.rows) for j in range(m.cols)]


def bumps():
    """(label, skeleton, fiber): the pointed cases unbumped, then every
    bump.  Every cell of Vec_Z/2 takes every amount; the cells of K[S3],
    D(Z2) and Vec_Z/4 take the amounts in turn."""
    cases = {name: skeletalized(name) for name in SKELETALIZED}
    cases["vec-z2"] = pointed(2)
    cases["vec-z4"] = pointed(4)
    for name, (skel, fiber) in cases.items():
        if name not in SKELETALIZED:
            yield name, skel, fiber
        if name == "ka4":
            plan = [(key, cell, AMOUNTS[k]) for key, cell, k in KA4_BUMPS]
        elif name == "vec-z2":
            plan = [(key, cell, amount) for key, cell in cells(fiber) for amount in AMOUNTS]
        else:
            plan = [(key, cell, AMOUNTS[k % len(AMOUNTS)]) for k, (key, cell) in enumerate(cells(fiber))]
        for key, (i, j), (text, by) in plan:
            rows = fiber.J[key].to_rows()
            rows[i][j] = rows[i][j] + by
            j_bumped = dict(fiber.J)
            j_bumped[key] = Matrix.from_rows(rows)
            label = f"{name}/J{key}/{i}.{j} +{text}"
            yield label, skel, dataclasses.replace(fiber, J=j_bumped)


def report_lines(label, skel, fiber) -> list[str]:
    try:
        rep = verify_tensorator(skel, fiber)
    except NonInvertibleJ as exc:
        return [label, f"  NonInvertibleJ: {exc}"]
    return [label] + ["  " + line for line in rep.lines()]


def digest_lines() -> list[str]:
    out = []
    for name in SKELETALIZED:
        for part, obj in zip(("skeleton", "fiber"), skeletalized(name)):
            out.append(f"{name} {part} sha256 {hashlib.sha256(serialize.dumps(obj).encode()).hexdigest()}")
    return out


def golden_text() -> str:
    lines = digest_lines()
    for label, skel, fiber in bumps():
        lines += report_lines(label, skel, fiber)
    return "\n".join(lines) + "\n"


def test_ka4_has_a_multiplicity_two_block_and_passes_its_own_coherence():
    skel, fiber = skeletalized("ka4")
    std = skel.names.index("std")
    assert skel.n(std, std, std) == 2
    assert fiber.J[(std, std)].rows == 9
    # trees std std std -> std: one through each character, 2 x 2 through std
    assert skel.F[(std, std, std, std)].rows == 3 + 2 * 2


def test_tensorator_bumps_and_skeleton_digests_match_golden():
    golden = GOLDEN.read_text().splitlines()
    lines = digest_lines()
    for label, skel, fiber in bumps():
        lines += report_lines(label, skel, fiber)
    assert lines == golden


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
