"""Single-entry bumps of rebuilt presentations against the two arithmetic
paths of the Hopf checkers.

Rebuilt D(Z2) and K[S3] have rational entries, so the checkers run them on
common-denominator integers.  Promoting every entry to conductor 2 keeps the
field (Q(zeta_2) = Q) but puts the checkers in the packed ring of
`scalars.packing`, at x -> B, so both paths must reject each bump at the
same (check, index) tuples.  The full report lines are pinned by
`golden/hopf-bumps.txt`, written by the checkers before the integer path
existed; one bump by zeta_3 pins the cyclotomic path as well, and its
report prints every cell at conductor 3, the conductor of its ring.  The
samples of rebuilt and group-basis K[S3] comult bumps were added to the file
by the checkers before the flat-offset accumulation stores existed.  A
Hypothesis property bumps random cells by random p/q, which changes the
common denominator of the integer path.

The conductor-2 twin runs the same checker code as the presentation it
mirrors, so every reported (check, index) is also evaluated here on plain
Scalars, straight from the structure tensors (`reference_sides`): it must
fail there, and each side the report prints, on both paths, must be that
Scalar side with every nonzero cell at the conductor of the checkers' ring
(`rendered`).  The antipode flags are recomputed the same way
(`reference_flags`).

Regenerate the golden file with `python tests/test_hopf_bumps.py`.
"""

import functools
import pathlib
from itertools import product
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrec.examples import EXAMPLES
from hopfrec.hopf import AlgebraPresentation, HopfPresentation, run_hopf_checks
from hopfrec.matrices import Matrix
from hopfrec.reconstruct import reconstruct_hopf
from hopfrec.repcat import skeletalize
from hopfrec.scalars import ONE, ZERO, Scalar

GOLDEN = pathlib.Path(__file__).parent / "golden" / "hopf-bumps.txt"

# (base, tensor, step): every step-th nonzero entry is bumped by 1.  Rebuilt
# K[S3] is dense and group-basis K[S3] ("ks3-group") sparse, so their comult
# bumps reach both accumulation stores of the checkers; the full rebuilt
# K[S3] comult sweep (112 cells) is too slow for the suite.
SWEEP = [
    ("dz2", "mult", 1),
    ("dz2", "comult", 1),
    ("dz2", "antipode", 1),
    ("ks3", "mult", 1),
    ("ks3", "antipode", 1),
    ("ks3", "comult", 8),
    ("ks3-group", "comult", 1),
]
ZETA3_BUMP = ("dz2", "comult", (0, 0, 0))


@functools.cache
def rebuilt(name):
    h = EXAMPLES[name][1]()
    mods = EXAMPLES[f"{name}-modules"][1]()
    skel, fiber = skeletalize(h, mods, verify=False)
    return reconstruct_hopf(skel, fiber, verify=False).hopf


def tensors(h):
    return {
        "mult": [[list(row) for row in plane] for plane in h.alg.mult],
        "comult": [[list(row) for row in plane] for plane in h.comult],
        "antipode": h.antipode.to_rows(),
    }


def assemble(h, t, unit, counit):
    alg = AlgebraPresentation(h.dim, t["mult"], unit)
    return HopfPresentation(alg, t["comult"], counit, Matrix.from_rows(t["antipode"]))


def bumped(h, tensor, index, by=ONE):
    t = tensors(h)
    cell = t[tensor]
    for i in index[:-1]:
        cell = cell[i]
    cell[index[-1]] = cell[index[-1]] + by
    return assemble(h, t, h.alg.unit, h.counit)


def promoted(h, n):
    """The same presentation with every entry viewed in Q(zeta_n)."""
    t = tensors(h)
    for plane in t["mult"] + t["comult"]:
        for row in plane:
            row[:] = [x.promote(n) for x in row]
    t["antipode"] = [[x.promote(n) for x in row] for row in t["antipode"]]
    return assemble(h, t, [x.promote(n) for x in h.alg.unit], [x.promote(n) for x in h.counit])


def nonzero_cells(h, tensor):
    t = tensors(h)[tensor]
    if tensor == "antipode":
        return [(i, j) for i, row in enumerate(t) for j, x in enumerate(row) if not x.is_zero()]
    return [
        (i, j, k)
        for i, plane in enumerate(t)
        for j, row in enumerate(plane)
        for k, x in enumerate(row)
        if not x.is_zero()
    ]


def bumps():
    """(label, bumped presentation) for the sweep, then the zeta_3 bump."""
    bases = {name: rebuilt(name) for name in ("dz2", "ks3")}
    bases["ks3-group"] = EXAMPLES["ks3"][1]()
    for name, tensor, step in SWEEP:
        h = bases[name]
        for index in nonzero_cells(h, tensor)[::step]:
            yield f"{name}/{tensor}/{'.'.join(map(str, index))} +1", bumped(h, tensor, index)
    name, tensor, index = ZETA3_BUMP
    yield (
        f"{name}/{tensor}/{'.'.join(map(str, index))} +zeta3",
        bumped(bases[name], tensor, index, Scalar.zeta(3)),
    )


# -- test-local reference -------------------------------------------------------

def _nonzero(h):
    """(mult, comult): for each i and j the (k, value) over nonzero cells,
    and for each i the (j, k, value) over nonzero cells."""
    n = h.dim
    m = [[[(k, x) for k, x in enumerate(h.alg.mult[i][j]) if x] for j in range(n)] for i in range(n)]
    c = [[(j, k, x) for j in range(n) for k, x in enumerate(h.comult[i][j]) if x] for i in range(n)]
    return m, c


def _side(cells, terms):
    out = dict.fromkeys(cells, ZERO)
    for cell, x in terms:
        out[cell] = out[cell] + x
    return [out[cell] for cell in cells]


def reference_sides(h, check, index):
    """Both sides of the identity `check` at `index` as Scalar vectors,
    summed term by term from the structure tensors."""
    n, u, eps = h.dim, h.alg.unit, h.counit
    m, c = _nonzero(h)
    s = [[h.antipode.at(l, i) for l in range(n)] for i in range(n)]  # s[i][l]: S(e_i) at e_l
    one = range(n)
    two = [(p, q) for p in one for q in one]
    three = [(p, q, r) for p in one for q in one for r in one]
    if check == "associativity":
        i, j, l = index
        lhs = [(p, x * y) for k, x in m[i][j] for p, y in m[k][l]]
        rhs = [(p, x * y) for k, x in m[j][l] for p, y in m[i][k]]
        return _side(one, lhs), _side(one, rhs)
    if check in ("left-unit", "right-unit"):
        (i,) = index
        rows = [m[j][i] if check == "left-unit" else m[i][j] for j in one]
        lhs = [(k, u[j] * x) for j in one for k, x in rows[j]]
        return _side(one, lhs), _side(one, [(i, ONE)])
    if check == "coassociativity":
        (i,) = index
        lhs = [((a, b, k), x * y) for j, k, x in c[i] for a, b, y in c[j]]
        rhs = [((j, a, b), x * y) for j, k, x in c[i] for a, b, y in c[k]]
        return _side(three, lhs), _side(three, rhs)
    if check in ("left-counit", "right-counit"):
        (i,) = index
        left = check == "left-counit"
        lhs = [(k if left else j, eps[j if left else k] * x) for j, k, x in c[i]]
        return _side(one, lhs), _side(one, [(i, ONE)])
    if check == "comult-multiplicative":
        i, j = index
        lhs = [((p, q), x * y) for k, x in m[i][j] for p, q, y in c[k]]
        rhs = [
            ((p, q), c1 * c2 * x * y)
            for a1, b1, c1 in c[i]
            for a2, b2, c2 in c[j]
            for p, x in m[a1][a2]
            for q, y in m[b1][b2]
        ]
        return _side(two, lhs), _side(two, rhs)
    if check == "counit-multiplicative":
        i, j = index
        return _side([()], [((), x * eps[k]) for k, x in m[i][j]]), _side([()], [((), eps[i] * eps[j])])
    if check == "comult-of-unit":
        lhs = [((p, q), u[i] * x) for i in one for p, q, x in c[i]]
        return _side(two, lhs), _side(two, [((p, q), u[p] * u[q]) for p, q in two])
    if check == "counit-of-unit":
        return _side([()], [((), u[i] * eps[i]) for i in one]), _side([()], [((), ONE)])
    if check in ("left-snake", "right-snake"):
        (i,) = index
        if check == "left-snake":
            lhs = [(p, x * s[j][l] * y) for j, k, x in c[i] for l in one for p, y in m[l][k]]
        else:
            lhs = [(p, x * s[k][l] * y) for j, k, x in c[i] for l in one for p, y in m[j][l]]
        return _side(one, lhs), _side(one, [(p, u[p] * eps[i]) for p in one])
    raise AssertionError(f"no reference for {check}")


def reference_flags(h):
    """The antipode's informational flags, from the Scalar tensors."""
    n = h.dim
    m, c = _nonzero(h)
    s = [[(l, x) for l in range(n) if (x := h.antipode.at(l, i))] for i in range(n)]
    two = [(p, q) for p in range(n) for q in range(n)]
    antihom = all(
        _side(range(n), [(l, x * y) for k, x in m[i][j] for l, y in s[k]])
        == _side(range(n), [(q, x * y * z) for l, x in s[j] for p, y in s[i] for q, z in m[l][p]])
        for i in range(n)
        for j in range(n)
    )
    co_antihom = all(
        _side(two, [((p, q), x * y) for l, x in s[i] for p, q, y in c[l]])
        == _side(two, [((p, q), x * y * z) for j, k, x in c[i] for p, y in s[k] for q, z in s[j]])
        for i in range(n)
    )
    return {
        "algebra-antihomomorphism": antihom,
        "coalgebra-antihomomorphism": co_antihom,
        "involutive": h.antipode * h.antipode == Matrix.identity(n),
    }


# the arity of the index tuples a check's side is printed over; 0 prints
# the side's one value alone
ARITY = {"coassociativity": 3, "comult-multiplicative": 2, "comult-of-unit": 2,
         "counit-multiplicative": 0, "counit-of-unit": 0}


def ring_conductor(h):
    """The lcm of the conductors of the Scalars the checkers lower: the
    nonzero tensor entries, the unit and the counit."""
    entries = [x for t in (h.alg.mult, h.comult) for plane in t for row in plane for x in row]
    entries = [x for x in entries + list(h.antipode.entries) if x] + list(h.alg.unit + h.counit)
    return lcm(*(x.conductor for x in entries))


def rendered(side, n, arity, conductor):
    """A Scalar side over the n^arity index tuples as a report prints it:
    its nonzero cells, each promoted to the conductor."""
    if arity == 0:
        return str(side[0].promote(conductor))
    cells = range(n) if arity == 1 else product(range(n), repeat=arity)
    terms = [f"({x.promote(conductor)})e{c}" for c, x in zip(cells, side) if x]
    return " + ".join(terms) or "0"


def assert_reference_agrees(label, h, reports):
    """Each reported (check, index) fails on plain Scalars and prints those
    Scalar sides, and the flags match."""
    n = ring_conductor(h)
    for r in reports:
        for f in r.failures:
            lhs, rhs = reference_sides(h, f.check, f.index)
            assert lhs != rhs, (label, f.check, f.index)
            arity = ARITY.get(f.check, 1)
            assert (f.lhs, f.rhs) == tuple(rendered(s, h.dim, arity, n) for s in (lhs, rhs)), (label, f.check, f.index)
    assert reports[-1].flags == reference_flags(h), label


def report_lines(label, reports) -> list[str]:
    return [label] + ["  " + line for r in reports for line in r.lines()]


def failing_tuples(reports):
    return [(r.name, f.check, f.index) for r in reports for f in r.failures]


def golden_text() -> str:
    lines = []
    for label, h in bumps():
        lines += report_lines(label, run_hopf_checks(h))
    return "\n".join(lines) + "\n"


def test_every_bump_fails_alike_on_both_paths_and_matches_golden():
    golden = GOLDEN.read_text().splitlines()
    lines = []
    for label, h in bumps():
        reports = run_hopf_checks(h)
        assert not all(r.passed for r in reports), f"{label} passed every check"
        assert_reference_agrees(label, h, reports)
        if label.endswith("+1"):
            twin = promoted(h, 2)
            on_scalars = run_hopf_checks(twin)
            assert_reference_agrees(label, twin, on_scalars)
            assert failing_tuples(on_scalars) == failing_tuples(reports), label
            assert [r.flags for r in on_scalars] == [r.flags for r in reports], label
        lines += report_lines(label, reports)
    assert lines == golden


def test_unbumped_bases_pass_on_both_paths():
    for name in ("dz2", "ks3"):
        h = rebuilt(name)
        assert {type(x) for x in h._views.eps} == {int} and h._views.M == 0
        twin = promoted(h, 2)  # decided in the packed ring
        assert twin._views.M > 0
        for reports in (run_hopf_checks(h), run_hopf_checks(twin)):
            assert all(r.passed for r in reports), name


def test_dense_and_keyed_stores_give_the_same_reports():
    """The store is derived from nonzero counts; forcing either one on
    every presentation must not change a report line."""
    cases = list(bumps())[::4] + [(name, rebuilt(name)) for name in ("dz2", "ks3")]
    for label, h in cases:
        lines = []
        for dense in (True, False):
            h._views.dense = h.alg._views.dense = dense
            lines.append(report_lines(label, run_hopf_checks(h)))
        assert lines[0] == lines[1], label


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_rational_bumps_fail_alike_on_both_paths(data):
    """A bump by p/q changes D, the common denominator of the integer path;
    any cell of either tensor may be bumped, zero or not."""
    name = data.draw(st.sampled_from(["dz2", "ks3"]))
    tensor = data.draw(st.sampled_from(["mult", "comult", "antipode"]))
    h = rebuilt(name)
    cell = st.integers(0, h.dim - 1)
    index = data.draw(st.tuples(cell, cell) if tensor == "antipode" else st.tuples(cell, cell, cell))
    p = data.draw(st.integers(-9, 9).filter(bool))
    q = data.draw(st.integers(1, 9))
    b = bumped(h, tensor, index, Scalar.rational(p, q))
    on_ints, on_scalars = run_hopf_checks(b), run_hopf_checks(promoted(b, 2))
    assert_reference_agrees("p/q bump", b, on_ints)
    assert failing_tuples(on_scalars) == failing_tuples(on_ints)
    assert [r.flags for r in on_scalars] == [r.flags for r in on_ints]


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
