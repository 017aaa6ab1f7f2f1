"""Single-entry bumps of rebuilt presentations against the two arithmetic
paths of the Hopf checkers.

Rebuilt D(Z2) and K[S3] have rational entries, so the checkers run them on
common-denominator integers.  Promoting every entry to conductor 2 keeps the
field (Q(zeta_2) = Q) but forces the Scalar path, so both paths must reject
each bump at the same (check, index) tuples.  The full report lines are
pinned by `golden/hopf-bumps.txt`, written by the checkers before the integer
path existed; one bump by zeta_3 pins the cyclotomic path as well.  The
samples of rebuilt and group-basis K[S3] comult bumps were added to the file
by the checkers before the flat-offset accumulation stores existed.  A
Hypothesis property bumps random cells by random p/q, which changes the
common denominator of the integer path.

Regenerate the golden file with `python tests/test_hopf_bumps.py`.
"""

import functools
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrec.examples import EXAMPLES
from hopfrec.hopf import AlgebraPresentation, HopfPresentation, run_hopf_checks
from hopfrec.matrices import Matrix
from hopfrec.reconstruct import reconstruct_hopf
from hopfrec.repcat import skeletalize
from hopfrec.scalars import ONE, Scalar

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
        if label.endswith("+1"):
            on_scalars = run_hopf_checks(promoted(h, 2))
            assert failing_tuples(on_scalars) == failing_tuples(reports), label
            assert [r.flags for r in on_scalars] == [r.flags for r in reports], label
        lines += report_lines(label, reports)
    assert lines == golden


def test_unbumped_bases_pass_on_both_paths():
    for name in ("dz2", "ks3"):
        h = rebuilt(name)
        assert {type(x) for x in h._views.eps} == {int}
        assert {type(x) for x in promoted(h, 2)._views.eps} == {Scalar}
        for reports in (run_hopf_checks(h), run_hopf_checks(promoted(h, 2))):
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
    assert failing_tuples(on_scalars) == failing_tuples(on_ints)
    assert [r.flags for r in on_scalars] == [r.flags for r in on_ints]


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
