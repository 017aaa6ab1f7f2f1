"""Single-entry bumps of Hopf morphisms against the arithmetic paths of
check_hopf_morphism.

The round-trip gamma of K[S3] and D(Z2) and a rational gauge conjugation
between two rebuilt K[S3] presentations are bumped one nonzero entry at a
time.  In the gauge case the source, target and map all have denominators
above 1, so every identity compares sides of different scales.  Promoting
every entry to conductor 2 keeps the field but puts the checker in one
packed ring, so both paths must reject each +1 bump at the same (check,
index) tuples.  Bumps by zeta_3 and zeta_5 make the map cyclotomic while
the presentations stay rational, so they are packed too, and their reports
print every cell at the ring's conductor.  The full report lines are pinned
by `golden/hopf-morphism-bumps.txt`, written by the checker while it still
ran on Scalars alone.  The conductor-2 twins run the same checker code, so
every reported (check, index) is also evaluated here on plain Scalars,
straight from the structure tensors and the map (`reference_sides`): it
must fail there, and each side the report prints, on both paths, must be
that Scalar side with every nonzero cell at the ring's conductor.

Regenerate the golden file with `python tests/test_hopf_morphism_bumps.py`.
"""

import dataclasses
import pathlib
from fractions import Fraction
from math import lcm

from test_hopf_bumps import rendered, ring_conductor

from hopfrec import hopf
from hopfrec.examples import EXAMPLES, gen_group_algebra
from hopfrec.groups import cyclic_group
from hopfrec.hopf import AlgebraPresentation, HopfPresentation, check_hopf_morphism
from hopfrec.matrices import Matrix, block_diag, mat_inverse
from hopfrec.reconstruct import reconstruct_hopf
from hopfrec.repcat import ModuleRep, _roundtrip, skeletalize
from hopfrec.scalars import ONE, ZERO, Scalar

GOLDEN = pathlib.Path(__file__).parent / "golden" / "hopf-morphism-bumps.txt"

# cases swept with +1 at every nonzero cell of the map; their conductor-2
# twins take the packed path
RATIONAL = ("ks3/gamma", "dz2/gamma", "ks3-gauge/conj")
# (case, cell of the map, n) bumped by zeta_n instead of 1
ZETA_BUMPS = [("ks3/gamma", (2, 1), 3), ("ks3-gauge/conj", (3, 2), 3), ("kz5/gamma", (0, 1), 5)]


def gamma_case(name):
    h = EXAMPLES[name][1]()
    mods = EXAMPLES[f"{name}-modules"][1]()
    _, gamma, recon = _roundtrip(h, mods, verify=False)
    return h, recon.hopf, gamma


def character_case(n):
    """K[Z/n] on its characters: the map is cyclotomic, both sides rational."""
    h = gen_group_algebra(cyclic_group(n))
    z = Scalar.zeta(n)
    mods = [ModuleRep(1, tuple(Matrix(1, 1, [z ** (s * t % n)]) for t in range(n))) for s in range(n)]
    _, gamma, recon = _roundtrip(h, mods, verify=False)
    return h, recon.hopf, gamma


def gauge_eta(dims) -> list:
    """The rational gauge of gauge_case, one block per simple of K[S3]."""
    std = Matrix.from_rows([[1, Fraction(1, 2)], [0, Fraction(2, 3)]])
    return [std if d == 2 else Matrix.identity(1) for d in dims]


def gauge_case():
    """Rebuilt K[S3] to its rebuild along a rational gauge eta of the fiber,
    by block conjugation x -> eta x eta^-1."""
    h = EXAMPLES["ks3"][1]()
    skel, fiber = skeletalize(h, EXAMPLES["ks3-modules"][1](), verify=False)
    eta = gauge_eta(fiber.dims)
    j = {}
    for (a, b), m in fiber.J.items():
        out = block_diag([eta[c] for c in range(skel.rank) for _ in range(skel.n(a, b, c))])
        j[(a, b)] = out * m * mat_inverse(eta[a].kron(eta[b]))
    src = reconstruct_hopf(skel, fiber, verify=False).hopf
    dst = reconstruct_hopf(skel, dataclasses.replace(fiber, J=j), verify=False).hopf
    conj = block_diag([e.kron(mat_inverse(e).transpose()) for e in eta])
    return src, dst, conj


def cases():
    return {
        "ks3/gamma": gamma_case("ks3"),
        "dz2/gamma": gamma_case("dz2"),
        "ks3-gauge/conj": gauge_case(),
        "kz5/gamma": character_case(5),
    }


def bumped(m, cell, by=ONE):
    rows = m.to_rows()
    p, i = cell
    rows[p][i] = rows[p][i] + by
    return Matrix.from_rows(rows)


def promoted_hopf(h, n):
    """The same presentation with every entry viewed in Q(zeta_n)."""

    def up3(t):
        return [[[x.promote(n) for x in row] for row in plane] for plane in t]

    alg = AlgebraPresentation(h.dim, up3(h.alg.mult), [x.promote(n) for x in h.alg.unit])
    return HopfPresentation(alg, up3(h.comult), [x.promote(n) for x in h.counit], promoted(h.antipode, n))


def promoted(m, n):
    return Matrix(m.rows, m.cols, [x.promote(n) for x in m.entries])


def nonzero_cells(m):
    return [(p, i) for p in range(m.rows) for i in range(m.cols) if m.at(p, i)]


def label_of(name, cell, by):
    return f"{name}/{'.'.join(map(str, cell))} +{by}"


def bumps(base):
    """(label, source, target, bumped map): every +1 sweep, then the zeta bumps."""
    for name in RATIONAL:
        src, dst, m = base[name]
        for cell in nonzero_cells(m):
            yield label_of(name, cell, 1), src, dst, bumped(m, cell)
    for name, cell, n in ZETA_BUMPS:
        src, dst, m = base[name]
        yield label_of(name, cell, f"zeta{n}"), src, dst, bumped(m, cell, Scalar.zeta(n))


# -- test-local reference -------------------------------------------------------

def reference_sides(src, dst, m, check, index):
    """Both sides of the morphism identity `check` at `index` as Scalar
    vectors over target cells, summed term by term."""
    ns, nd = src.dim, dst.dim
    one = range(nd)
    two = [(p, q) for p in one for q in one]

    def img(i):  # m(e_i) over the target basis
        return [m.at(p, i) for p in one]

    def dot(pairs):  # the sum of the products, zero terms skipped
        return sum((x * y for x, y in pairs if x and y), ZERO)

    if check == "morphism-multiplicative":
        i, j = index
        lhs = [dot((src.alg.mult[i][j][k], m.at(t, k)) for k in range(ns)) for t in one]
        a, b = img(i), img(j)
        rhs = [dot((a[p] * b[q], dst.alg.mult[p][q][t]) for p, q in two) for t in one]
        return lhs, rhs
    if check == "morphism-unit":
        return [dot((src.alg.unit[i], m.at(p, i)) for i in range(ns)) for p in one], list(dst.alg.unit)
    if check == "morphism-comultiplicative":
        (i,) = index
        terms = [(src.comult[i][j][k], j, k) for j in range(ns) for k in range(ns)]
        lhs = [dot((c, m.at(p, j) * m.at(q, k)) for c, j, k in terms) for p, q in two]
        a = img(i)
        rhs = [dot((a[r], dst.comult[r][p][q]) for r in one) for p, q in two]
        return lhs, rhs
    if check == "morphism-counit":
        (i,) = index
        return [src.counit[i]], [dot((m.at(p, i), dst.counit[p]) for p in one)]
    if check == "morphism-antipode":
        (i,) = index
        ms, sm = m * src.antipode, dst.antipode * m
        return [ms.at(p, i) for p in one], [sm.at(p, i) for p in one]
    raise AssertionError(f"no reference for {check}")


def assert_reference_agrees(label, src, dst, m, rep):
    """Each reported (check, index) fails on plain Scalars and prints those
    Scalar sides, at the conductor of the ring that holds the source, the
    target and the map."""
    n = lcm(ring_conductor(src), ring_conductor(dst), m._n)
    for f in rep.failures:
        lhs, rhs = reference_sides(src, dst, m, f.check, f.index)
        assert lhs != rhs, (label, f.check, f.index)
        arity = {"morphism-comultiplicative": 2, "morphism-counit": 0}.get(f.check, 1)
        assert (f.lhs, f.rhs) == tuple(rendered(s, dst.dim, arity, n) for s in (lhs, rhs)), (label, f.check, f.index)


def report_lines(label, rep) -> list[str]:
    return [label] + ["  " + line for line in rep.lines()]


def failing_tuples(rep):
    return [(f.check, f.index) for f in rep.failures]


def golden_text() -> str:
    lines = []
    for label, src, dst, m in bumps(cases()):
        lines += report_lines(label, check_hopf_morphism(src, dst, m))
    return "\n".join(lines) + "\n"


def test_every_morphism_bump_fails_alike_on_both_paths_and_matches_golden():
    golden = GOLDEN.read_text().splitlines()
    base = cases()
    twins = {name: (promoted_hopf(base[name][0], 2), promoted_hopf(base[name][1], 2)) for name in RATIONAL}
    lines = []
    for label, src, dst, m in bumps(base):
        rep = check_hopf_morphism(src, dst, m)
        assert not rep.passed, f"{label} passed"
        assert_reference_agrees(label, src, dst, m, rep)
        if label.endswith("+1"):
            twin = (*twins[label.rsplit("/", 1)[0]], promoted(m, 2))
            on_scalars = check_hopf_morphism(*twin)
            assert_reference_agrees(label, *twin, on_scalars)
            assert failing_tuples(on_scalars) == failing_tuples(rep), label
            assert on_scalars.flags == rep.flags, label
        lines += report_lines(label, rep)
    assert lines == golden


def test_unbumped_maps_are_isomorphisms_on_both_paths():
    for name, (src, dst, m) in cases().items():
        reps = [check_hopf_morphism(src, dst, m)]
        if name in RATIONAL:
            reps.append(check_hopf_morphism(promoted_hopf(src, 2), promoted_hopf(dst, 2), promoted(m, 2)))
        for rep in reps:
            assert rep.passed and rep.flags == {"bijective": True}, name


def test_all_five_laws_are_decided_without_a_matrix_product(monkeypatch):
    """ks3 gamma (conductor 1) and the K[Z/5] character gamma (the packed
    ring), plus a zeta5 bump of the latter (rendered from that ring),
    report the same lines with Matrix products barred."""
    src, dst, m = character_case(5)
    runs = [gamma_case("ks3"), (src, dst, m), (src, dst, bumped(m, (0, 1), Scalar.zeta(5)))]
    want = [check_hopf_morphism(*run).lines() for run in runs]

    def barred(*args):
        raise AssertionError("check_hopf_morphism made a Matrix product")

    monkeypatch.setattr(Matrix, "__mul__", barred)
    monkeypatch.setattr(Matrix, "__rmul__", barred)
    got = [check_hopf_morphism(*run) for run in runs]
    assert [rep.passed for rep in got] == [True, True, False]
    assert [rep.lines() for rep in got] == want



def test_each_presentation_is_lowered_once_and_keeps_no_views(monkeypatch):
    """The joint ring reads its values straight off the presentations, so
    each is lowered once, in that ring, and neither caches its own views."""
    lowered = []
    lower = hopf._Views.lower

    def counted(self, ring=None):
        lowered.append(ring is not None)
        return lower(self, ring)

    monkeypatch.setattr(hopf._Views, "lower", counted)
    src, dst, m = gauge_case()
    passed = []
    for run in ((src, dst, m), (src, dst, bumped(m, (3, 2)))):
        for h in run[:2]:
            assert "_views" not in h.__dict__ and "_views" not in h.alg.__dict__
        lowered.clear()
        passed.append(check_hopf_morphism(*run).passed)
        assert lowered == [True, True]
        for h in run[:2]:
            assert "_views" not in h.__dict__ and "_views" not in h.alg.__dict__

if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
