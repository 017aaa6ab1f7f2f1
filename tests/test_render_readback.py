"""The renderers of failing sides against their one-line formulas.

`hopf._Views.render` and `fusion._pentagon_render` read each distinct int
of a side back through the ring's `high` once per call, and `hopf._cell`
builds index tuples by divmod.  Each is compared here with the formula it
replaced, kept below as the reference: on list and dict sides, in a
conductor-1 ring and in a packed conductor-8 ring, with nonzero ints that
stand for 0 and so are skipped.  A counter on `high` pins the readback
budget itself: one call per distinct nonzero int of each rendered side.
"""

import operator
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import test_pentagon_bumps as pentagon_bumps
from test_hopf_bumps import bumped, nonzero_cells, rebuilt
from test_pentagon_bumps import vec_z8_omega
from test_tensorator_bumps import skeletalized

from hopfrec import fusion, hopf
from hopfrec.fusion import f_right_basis, verify_pentagon
from hopfrec.hopf import AlgebraPresentation, run_hopf_checks
from hopfrec.matrices import Matrix
from hopfrec.scalars import Scalar

# -- references: the formulas the renderers replaced -----------------------------


def reference_cell(o, n, arity):
    if arity == 1:
        return o
    return tuple(o // n ** (arity - 1 - t) % n for t in range(arity))


def reference_render(v, side, scale, n, arity):
    cells = enumerate(side) if type(side) is list else sorted(side.items())
    terms = [f"({x})e{reference_cell(o, n, arity)}" for o, v_ in cells if v_ and (x := v.high(v_, scale))]
    return " + ".join(terms) if terms else "0"


def reference_pentagon_render(skel, images, key, high, D):
    N, r = skel.fusion, skel.rank
    a, b, c, d, tot = key
    t5 = [(z, rho, *rt) for z in range(r) for rho in range(N[c][d][z]) for rt in f_right_basis(N, a, b, z, tot)]
    images = sorted(images, key=operator.itemgetter(0))
    return [
        Matrix._of(len(t5), len(images), [high(img[side].get(lab, 0), scale) for lab in t5 for img in images])
        for side, scale in ((1, D**2), (2, D**3))
    ]


# -- views in both kinds of ring ---------------------------------------------------


def views(corner):
    """Lowered views of a 2-dim algebra whose one odd entry is `corner`."""
    alg = AlgebraPresentation(2, [[[1, 0], [0, 1]], [[0, 1], [corner, 0]]], [1, 0])
    return hopf._Views(alg).lower()


RATIONAL = views(Fraction(1, 3))  # conductor 1: D = 3, M = 0
PACKED = views(Scalar.zeta(8) * Fraction(1, 3))  # conductor 8, packed: D = 3, M > 0


def test_the_two_rings_are_a_rational_and_a_packed_one():
    assert (RATIONAL.D, RATIONAL.M) == (3, 0)
    assert PACKED.D == 3 and PACKED.M > 0


def test_cell_matches_the_generator_formula():
    for n in range(1, 5):
        for arity in range(1, 5):
            for o in range(n**arity):
                assert hopf._cell(o, n, arity) == reference_cell(o, n, arity), (o, n, arity)


def test_a_nonzero_int_that_stands_for_zero_is_skipped():
    M = PACKED.M
    for side in ([M, 1, -2 * M, 1, 0, 3 * 27], {0: M, 1: 1, 3: 1, 2: -2 * M, 4: 0, 5: 81}):
        got = PACKED.render(side, 27, 2, 3)
        assert got == reference_render(PACKED, side, 27, 2, 3)
        assert got == (
            "(z8[1/27,0/1,0/1,0/1])e(0, 0, 1) + (z8[1/27,0/1,0/1,0/1])e(0, 1, 1)"
            " + (z8[3/1,0/1,0/1,0/1])e(1, 0, 1)"
        )
    assert PACKED.render([M, -M], 1, 2, 1) == "0"


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_render_matches_the_one_line_formula(data):
    v = data.draw(st.sampled_from([RATIONAL, PACKED]), label="ring")
    n = data.draw(st.integers(1, 3), label="n")
    arity = data.draw(st.integers(1, 3), label="arity")
    cells = n**arity
    zeros = [0, v.M, -v.M, 5 * v.M] if v.M else [0]
    value = st.one_of(st.integers(-30, 30), st.integers(-(2**300), 2**300), st.sampled_from(zeros))
    # a few distinct values, repeated over the cells
    pool = data.draw(st.lists(value, min_size=1, max_size=4), label="pool") + zeros
    cell = st.sampled_from(pool)
    if data.draw(st.booleans(), label="list side"):
        side = data.draw(st.lists(cell, min_size=cells, max_size=cells), label="side")
    else:
        side = data.draw(st.dictionaries(st.integers(0, cells - 1), cell), label="side")
    scale = v.D ** data.draw(st.integers(0, 4), label="degree")
    assert v.render(side, scale, n, arity) == reference_render(v, side, scale, n, arity)


# -- the readback budget -------------------------------------------------------------


def nonzero(side):
    """The nonzero ints of a side, repeats included."""
    return [x for x in (side if type(side) is list else side.values()) if x]


def recording(high, calls):
    """high, appending each int it reads back to calls."""

    def read(v, scale):
        calls.append(v)
        return high(v, scale)

    return read


def test_each_render_reads_each_distinct_nonzero_int_back_once(monkeypatch):
    base = rebuilt("ks3")
    h = bumped(base, "comult", nonzero_cells(base, "comult")[0])
    calls = []
    for v in (h.alg._views, h._views):
        v.high = recording(v.high, calls)
    render = hopf._Views.render
    sides = []

    def counted(self, side, scale, n, arity):
        before = len(calls)
        out = render(self, side, scale, n, arity)
        assert Counter(calls[before:]) == Counter(set(nonzero(side)))
        sides.append(side)
        return out

    monkeypatch.setattr(hopf._Views, "render", counted)
    reports = run_hopf_checks(h)
    failures = sum(len(r.failures) for r in reports)
    assert failures and len(sides) >= failures
    # the budget is a saving: some side repeats a value over its cells
    assert any(len(nonzero(s)) > len(set(nonzero(s))) for s in sides)


# -- the pentagon's T5 x T1 matrices -------------------------------------------------

# Vec_Z/8^omega has 1 x 1 blocks, so each side is one cell; skeletal K[S3]
# has T5 x T1 matrices whose cells repeat values, 0 most of all
PENTAGON = {"vec-z8-omega": vec_z8_omega(), "ks3": skeletalized("ks3")[0]}


@given(st.data())
@settings(max_examples=16, deadline=None)
def test_pentagon_render_matches_the_one_line_formula(data):
    base = PENTAGON[data.draw(st.sampled_from(sorted(PENTAGON)), label="family")]
    key, cell = data.draw(st.sampled_from(pentagon_bumps.cells(base)), label="cell")
    by = data.draw(st.sampled_from([1, -1, Scalar.zeta(8), Scalar.zeta(3), Fraction(1, 2)]), label="by")
    skel = pentagon_bumps.bumped(base, key, cell, by)
    render = fusion._pentagon_render
    seen = []

    def checked(skel, images, key, high, D):
        calls, ref_calls = [], []
        got = render(skel, images, key, recording(high, calls), D)
        want = reference_pentagon_render(skel, images, key, recording(high, ref_calls), D)
        assert [str(m) for m in got] == [str(m) for m in want]
        assert [m.entries for m in got] == [m.entries for m in want]
        # the reference reads every cell of the two-step side, then of the
        # three-step side; the renderer each distinct int of each once
        half = len(ref_calls) // 2
        assert Counter(calls) == Counter(set(ref_calls[:half])) + Counter(set(ref_calls[half:]))
        seen.append(key)
        return got

    fusion._pentagon_render = checked
    try:
        rep = verify_pentagon(skel)
    finally:
        fusion._pentagon_render = render
    assert len(seen) == sum(f.check == "pentagon" for f in rep.failures)
