"""Single-entry bumps of skeletal associators against verify_pentagon.

Skeletalized K[S3], D(Z2), Fun(S3), K[S4] and K[A4] (over Q(zeta_3), with
two copies of std in std (x) std), K[Z/5] on its characters, and the
pointed Vec_Z/4 and Vec_Z/8^omega have single F entries bumped by 2, -1,
zeta_3 and zeta_8, on keys without a unit slot (a unit-slot block must be
an identity, so bumping it is a ShapeError).  A -1 bump of a 1x1 block
holding 1 makes it singular; the SINGULAR bumps move one entry of a
larger block by -det/cofactor, which makes the block singular with rank
one less.  The report lines, "recoordinatization-invertible" lines among
them, are pinned by `golden/pentagon-bumps.txt`.  The -1 bump of the
Vec_Z/8^omega block F(1, 1, 1, 3), a 1x1 block holding 1 among blocks of
conductor 8, pins the rendered conductor of a side that no path term
reaches: 8, the ring's, at which every side of a report is printed, as
the three bump goldens show line by line.  verify_pentagon decides each
quintuple on lowered blocks and renders only failing ones, reading back
the images that decided them through `_pentagon_render`, so no unbumped
family may reach it.  The quintuples the check walks are exactly those
with a tree and no unit among a, b, c and d, in lexicographic order,
against a test-local scan of all rank^5 of them.  The quintuples it skips
are pushed through the kernel's images on every family and every bump
and meet on both sides, and F is read-only after the unit check that the
skip rests on; by that check only the unit-free blocks are ranked.

Regenerate the golden file with `python tests/test_pentagon_bumps.py`.
"""

import dataclasses
import pathlib
import re
from functools import lru_cache
from itertools import product

import pytest

from test_tensorator_bumps import skeletalized

from hopfrec import fusion
from hopfrec.errors import ShapeError
from hopfrec.examples import gen_group_algebra, gen_pointed_category
from hopfrec.fusion import verify_pentagon
from hopfrec.groups import cyclic_group
from hopfrec.matrices import Matrix
from hopfrec.repcat import ModuleRep, skeletalize
from hopfrec.scalars import Scalar, packing, same_sides

GOLDEN = pathlib.Path(__file__).parent / "golden" / "pentagon-bumps.txt"

AMOUNTS = [("2", 2), ("-1", -1), ("zeta3", Scalar.zeta(3)), ("zeta8", Scalar.zeta(8))]
# family -> stride through its non-unit cells, which take the amounts in turn
STRIDES = {"ks3": 1, "dz2": 1, "fun-s3": 5, "kz5": 4, "vec-z4": 1, "vec-z8-omega": 43}
# (family, F key, cell, index into AMOUNTS); simple 3 of K[A4] is std, and
# its block (3, 3, 3, 3) runs through both copies of std
PICKED = [
    ("ks4", (2, 2, 2, 2), (1, 2), 0),
    ("ks4", (3, 3, 3, 3), (0, 3), 1),
    ("ks4", (3, 3, 3, 4), (2, 1), 2),
    ("ks4", (3, 3, 4, 4), (3, 3), 3),
    ("ka4", (3, 3, 3, 3), (4, 6), 0),
    ("ka4", (3, 3, 3, 3), (1, 5), 2),
    ("ka4", (3, 3, 3, 1), (0, 1), 3),
    ("ka4", (1, 3, 3, 3), (1, 1), 1),
    ("vec-z8-omega", (1, 1, 1, 3), (0, 0), 1),
]
# (family, F key, cell) bumped by -det/cofactor of the cell
SINGULAR = [("ks3", (2, 2, 2, 2), (0, 0)), ("ks4", (3, 3, 4, 3), (1, 2)), ("ka4", (3, 3, 3, 3), (2, 2))]


def characters_kz(n):
    """K[Z/n] skeletalized on its characters chi_s(t) = zeta_n^(s t)."""
    z = Scalar.zeta(n)
    mods = [ModuleRep(1, tuple(Matrix(1, 1, [z ** (s * t % n)]) for t in range(n))) for s in range(n)]
    return skeletalize(gen_group_algebra(cyclic_group(n)), mods, verify=True)[0]


def vec_z8_omega():
    """Vec_Z/8 with omega(a, b, c) = zeta_8^(a [b + c >= 8]), a normalized 3-cocycle."""
    z = Scalar.zeta(8)
    return gen_pointed_category(cyclic_group(8), lambda a, b, c: z ** (a * ((b + c) // 8)))


@lru_cache(maxsize=None)
def families() -> dict:
    out = {name: skeletalized(name)[0] for name in ("ks3", "dz2", "fun-s3", "ks4", "ka4")}
    out["kz5"] = characters_kz(5)
    out["vec-z4"] = gen_pointed_category(cyclic_group(4))
    out["vec-z8-omega"] = vec_z8_omega()
    return out


def cells(skel):
    return [
        (key, (i, j))
        for key, m in sorted(skel.F.items())
        if skel.unit not in key[:3]
        for i in range(m.rows)
        for j in range(m.cols)
    ]


def singular_amount(m: Matrix, i: int, j: int):
    """t with det(m + t e_ij) = 0, that is -det(m) / cofactor(i, j)."""
    rows = m.to_rows()
    minor = Matrix.from_rows([r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i])
    cofactor = minor.det() * (-1) ** (i + j)
    assert cofactor, "pick a cell with a nonzero cofactor"
    return -m.det() / cofactor


def bumped(skel, key, cell, by):
    rows = skel.F[key].to_rows()
    rows[cell[0]][cell[1]] = rows[cell[0]][cell[1]] + by
    f = dict(skel.F)
    f[key] = Matrix.from_rows(rows)
    return dataclasses.replace(skel, F=f)


def bumps():
    """(label, skeleton): each family unbumped, then its bumps."""
    fams = families()
    plan = []
    for name, skel in fams.items():
        plan.append((name, skel, None, None, None))
        step = STRIDES.get(name)
        if step:
            for k, (key, cell) in enumerate(cells(skel)[::step]):
                plan.append((name, skel, key, cell, AMOUNTS[k % len(AMOUNTS)]))
        plan += [(name, skel, key, cell, AMOUNTS[k]) for fam, key, cell, k in PICKED if fam == name]
        for fam, key, cell in SINGULAR:
            if fam == name:
                t = singular_amount(skel.F[key], *cell)
                plan.append((name, skel, key, cell, (str(t), t)))
    for name, skel, key, cell, amount in plan:
        if key is None:
            yield name, skel
        else:
            yield f"{name}/F{key}/{cell[0]}.{cell[1]} +{amount[0]}", bumped(skel, key, cell, amount[1])


def report_lines(label, skel) -> list[str]:
    return [label] + ["  " + line for line in verify_pentagon(skel).lines()]


def golden_text() -> str:
    lines = []
    for label, skel in bumps():
        lines += report_lines(label, skel)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["ks3", "dz2", "fun-s3", "ks4", "ka4", "kz5", "vec-z4", "vec-z8-omega"])
def test_a_passing_skeleton_never_reaches_the_dense_rendering(name, monkeypatch):
    def render(*args):
        raise AssertionError(f"_pentagon_render called at {args[2]}")

    monkeypatch.setattr(fusion, "_pentagon_render", render)
    assert verify_pentagon(families()[name]).passed


@lru_cache(maxsize=None)
def keys_with_a_tree(name):
    """Every (a, b, c, d, total) with a tree (((ab)c)d) -> total, over all
    rank^5, for a family of families(); its bumps share its fusion rules."""
    skel = families()[name]
    N, r = skel.fusion, skel.rank
    return [
        (a, b, c, d, t)
        for a, b, c, d, t in product(range(r), repeat=5)
        if any(N[a][b][x] and N[x][c][y] and N[y][d][t] for x in range(r) for y in range(r))
    ]


@pytest.mark.parametrize("name", ["ks3", "ks4", "fun-s3", "vec-z4", "vec-z8-omega"])
def test_the_pentagon_walks_exactly_the_keys_with_a_tree_in_order(name, monkeypatch):
    """The keys with a tree that the walk decides: those without a unit
    among a, b, c and d, in lexicographic order, each once."""
    walked = []
    kernel = fusion._pentagon_kernel

    def recording(*args):
        images = kernel(*args)

        def at(*key):
            walked.append(key)
            return images(*key)

        return at

    monkeypatch.setattr(fusion, "_pentagon_kernel", recording)
    skel = families()[name]
    assert verify_pentagon(skel).passed
    assert walked == [k for k in keys_with_a_tree(name) if skel.unit not in k[:4]]


def test_a_failing_quintuple_renders_from_the_images_that_decided_it(monkeypatch):
    """One kernel: on every bump, _pentagon_render gets the very list of
    images that the walk decided the failing quintuple on, and no quintuple
    is walked twice."""
    decided, rendered = {}, []
    kernel, render = fusion._pentagon_kernel, fusion._pentagon_render

    def recording(*args):
        images = kernel(*args)

        def at(*key):
            assert key not in decided, key
            decided[key] = images(*key)
            return decided[key]

        return at

    def checked(skel, images, key, high, D):
        assert images is decided[key]
        rendered.append(key)
        return render(skel, images, key, high, D)

    monkeypatch.setattr(fusion, "_pentagon_kernel", recording)
    monkeypatch.setattr(fusion, "_pentagon_render", checked)
    for label, skel in bumps():
        decided.clear()
        rendered.clear()
        rep = verify_pentagon(skel)
        assert rendered == [f.index for f in rep.failures if f.check == "pentagon"], label


def test_every_skipped_quintuple_meets_on_both_sides():
    """The quintuples with a unit slot, which verify_pentagon skips by the
    strict units, pushed through the kernel's images in the ring that
    verify_pentagon decides in: both paths agree on every family and every
    bump, so the skip hides no failure."""
    pushed = 0
    for label, skel in [*families().items(), *bumps()]:
        F = skel.F
        dim = max(m.rows for m in F.values())
        D, M, low, _ = packing([x for m in F.values() for x in m.entries], [(dim * dim, 3)] * 2)
        images = fusion._pentagon_kernel(skel, low)
        for key in keys_with_a_tree(label.split("/")[0]):
            if skel.unit in key[:4]:
                imgs = images(*key)
                assert imgs and all(same_sides(lhs, rhs, M, D) for _, lhs, rhs in imgs), (label, key)
                pushed += 1
    assert pushed > 10_000


def test_f_is_read_only_after_the_unit_check():
    skel = families()["ks3"]
    key = next(k for k in sorted(skel.F) if skel.unit in k[:3])
    with pytest.raises(TypeError):
        skel.F[key] = Matrix.identity(skel.F[key].rows)
    rows = skel.F[key].to_rows()
    rows[0][0] = rows[0][0] + 1
    f = dict(skel.F)
    f[key] = Matrix.from_rows(rows)
    with pytest.raises(ShapeError, match="must be an identity"):
        dataclasses.replace(skel, F=f)


@pytest.mark.parametrize("name", ["ks3", "vec-z8-omega"])
def test_only_the_unit_free_blocks_are_ranked(name, monkeypatch):
    # a block with a unit among its first three slots is an identity by the
    # unit check, so its rank is its size and is not taken
    skel, ranked, real = families()[name], [], Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda self: ranked.append(self) or real(self))
    assert verify_pentagon(skel).passed
    want = [m for key, m in sorted(skel.F.items()) if skel.unit not in key[:3]]
    assert len(ranked) == len(want) < len(skel.F)
    assert all(a is b for a, b in zip(ranked, want))


def test_pentagon_bumps_match_golden():
    assert golden_text().splitlines() == GOLDEN.read_text().splitlines()


def test_every_failure_line_of_the_bump_goldens_prints_at_one_conductor():
    """A failing side is read back at the conductor of the ring that decided
    it, so the scalars of a failure line, zN[...] or a bare rational p/q at
    conductor 1, all share one conductor."""
    seen = set()
    for name in ("hopf-bumps", "hopf-morphism-bumps", "pentagon-bumps"):
        for line in (GOLDEN.parent / f"{name}.txt").read_text().splitlines():
            if " != " in line:
                conductors = {int(m[1] or 1) for m in re.finditer(r"z(\d+)\[[^\]]*\]|-?\d+/\d+", line)}
                assert len(conductors) <= 1, (name, line)
                seen |= conductors
    assert seen == {1, 3, 5, 8, 24}


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
