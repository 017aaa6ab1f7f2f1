"""Exact linear algebra: kernels, solving, kron, determinism."""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrec.errors import ShapeError
from hopfrec.matrices import (
    Matrix,
    _full_rank_mod_p,
    _is_product,
    block_diag,
    mat_inverse,
    mat_kernel,
    mat_rsolve,
    mat_solve,
)
from hopfrec.scalars import ZERO, Scalar, _rat, phi_degree, sc, split_prime


def rnd_matrix(rng, rows, cols, span=5):
    return Matrix.from_rows(
        [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]
    )


def test_kernel_rank_one():
    m = Matrix.from_rows([[1, 1], [1, 1]])
    k = mat_kernel(m)
    assert k.cols == 1
    assert (m * k).is_zero()
    # canonical reduced form: free variable gets coefficient 1
    col = [k.at(0, 0), k.at(1, 0)]
    assert col == [sc(-1), sc(1)] or col == [sc(1), sc(-1)]


def test_kernel_trivial_and_full():
    assert mat_kernel(Matrix.identity(3)).cols == 0
    z = Matrix.zeros(2, 3)
    k = mat_kernel(z)
    assert k.cols == 3 and k == Matrix.identity(3)


def test_kernel_dimension_counts():
    m = Matrix.from_rows([[1, 2, 3]])
    k = mat_kernel(m)
    assert k.cols == 2
    assert (m * k).is_zero()
    assert m.rank() + k.cols == 3


def test_kernel_deterministic():
    rng = random.Random(7)
    for _ in range(10):
        m = rnd_matrix(rng, 3, 5)
        assert mat_kernel(m) == mat_kernel(m)
        assert (m * mat_kernel(m)).is_zero()


def test_solve_basics():
    b = Matrix.from_rows([[1], [2]])
    assert mat_solve(Matrix.identity(2), b) == b
    x = mat_solve(Matrix.from_rows([[2]]), Matrix.from_rows([[1]]))
    assert x == Matrix.from_rows([[Scalar.rational(1, 2)]])


def test_solve_inconsistent_returns_none():
    a = Matrix.from_rows([[1, 1], [1, 1]])
    b = Matrix.from_rows([[0], [1]])
    assert mat_solve(a, b) is None


def test_solve_roundtrip_random():
    rng = random.Random(11)
    for _ in range(8):
        a = rnd_matrix(rng, 3, 3)
        x = rnd_matrix(rng, 3, 2)
        sol = mat_solve(a, a * x)
        assert sol is not None
        assert a * sol == a * x


def test_inverse_and_singular():
    a = Matrix.from_rows([[1, 2], [3, 5]])
    inv = mat_inverse(a)
    assert a * inv == Matrix.identity(2)
    assert inv * a == Matrix.identity(2)
    for m in (
        Matrix.from_rows([[1, 1], [1, 1]]),
        Matrix.zeros(3, 3),
        Matrix.from_rows([[Scalar.zeta(8), 1], [1, -Scalar.zeta(8) ** 3]]),
    ):
        with pytest.raises(ValueError) as err:
            mat_inverse(m)
        assert type(err.value) is ValueError and str(err.value) == "matrix is singular"
    with pytest.raises(ShapeError, match="inverse of a non-square matrix"):
        mat_inverse(Matrix.zeros(2, 3))


def test_kron_identities():
    i2 = Matrix.identity(2)
    assert i2.kron(i2) == Matrix.identity(4)
    a = Matrix.from_rows([[2]])
    b = Matrix.from_rows([[1, 2], [3, 4]])
    assert a.kron(b) == Matrix.from_rows([[2, 4], [6, 8]])


def test_kron_mixed_product_law():
    rng = random.Random(3)
    a = rnd_matrix(rng, 2, 3)
    b = rnd_matrix(rng, 3, 2)
    c = rnd_matrix(rng, 2, 2)
    d = rnd_matrix(rng, 2, 3)
    assert (a * b).kron(c * d) == a.kron(c) * b.kron(d)
    assert a.kron(c).transpose() == a.transpose().kron(c.transpose())


def test_kron_associative():
    rng = random.Random(5)
    a = rnd_matrix(rng, 2, 2)
    b = rnd_matrix(rng, 1, 3)
    c = rnd_matrix(rng, 2, 1)
    assert a.kron(b).kron(c) == a.kron(b.kron(c))


def test_identity_holds_its_lowering():
    for n in range(4):
        m = Matrix.identity(n)
        want = Matrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])
        assert m == want and m._n == want._n == 1
        assert [(x.conductor, str(x)) for x in m.entries] == [(x.conductor, str(x)) for x in want.entries]
        assert m._low == (1, [[(i, 1)] for i in range(n)]) == want._lowered()


def test_block_diag():
    a = Matrix.from_rows([[1]])
    b = Matrix.from_rows([[2, 0], [0, 3]])
    m = block_diag([a, b])
    assert m.rows == 3 and m.cols == 3
    assert m.at(0, 0) == sc(1) and m.at(1, 1) == sc(2) and m.at(2, 2) == sc(3)
    assert m.at(0, 1).is_zero() and m.at(2, 0).is_zero()
    assert block_diag([]) == Matrix.identity(0)


def test_det_and_rank():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert a.det() == sc(-2)
    assert a.rank() == 2
    assert Matrix.from_rows([[1, 2], [2, 4]]).rank() == 1
    assert Matrix.zeros(3, 3).det().is_zero()


@pytest.mark.parametrize("conductor", [1, 8])
def test_rank_of_one_row_or_column_reads_its_entries(monkeypatch, conductor):
    # a single row or column has rank 1 iff some entry is nonzero; the
    # elimination path must agree, and the short path must not eliminate
    x = Scalar.zeta(8) + Fraction(1, 3) if conductor == 8 else sc(Fraction(-2, 3))
    zero = Scalar.zeta(8) - Scalar.zeta(8)  # a zero Scalar kept at conductor 8
    z = zero if conductor == 8 else ZERO
    cases = []
    for n in (1, 2, 4):
        for entries in ([z] * n, [z] * (n - 1) + [x], [x] + [z] * (n - 1), [x] * n):
            cases += [Matrix(1, n, entries), Matrix(n, 1, entries)]
    want = [len(m._echelon()[1]) for m in cases]
    assert all(m._n == conductor for m in cases)

    def barred(self):
        raise AssertionError("rank eliminated a single row or column")

    monkeypatch.setattr(Matrix, "_echelon", barred)
    assert [m.rank() for m in cases] == want
    assert want == [0 if all(not e for e in m.entries) else 1 for m in cases]
    for m in cases:  # the kernel of one column agrees with the reference
        if m.cols == 1:
            assert_equals_ref(mat_kernel(m), ref_kernel_matrix(m), 1, 1 - m.rank())


def test_rref_idempotent():
    rng = random.Random(9)
    for _ in range(6):
        m = rnd_matrix(rng, 3, 4)
        r, pivots = m.rref()
        r2, pivots2 = r.rref()
        assert r2 == r and pivots2 == pivots
        assert len(pivots) == m.rank()


def test_cyclotomic_entries():
    z = Scalar.zeta(4)
    m = Matrix.from_rows([[z, sc(1)], [sc(1), -z]])
    # det = -z^2 - 1 = 1 - 1 = 0... check: (z)(-z) - 1 = -z^2 - 1 = 1 - 1 = 0
    assert m.det().is_zero()
    n = Matrix.from_rows([[z, sc(0)], [sc(0), z]])
    assert mat_inverse(n) * n == Matrix.identity(2)


def test_internal_results_meet_at_one_conductor():
    # the zero row of a sums to the conductor-1 ZERO in the product, so the
    # result must still promote it to the conductor of the other entries
    z = Scalar.zeta(8)
    a = Matrix.from_rows([[z, 1], [0, 0]])
    b = Matrix.from_rows([[1, 2], [sc(1) / 3, 0]])
    p = a * b
    assert {e.conductor for e in p.entries} == {8}
    assert p == Matrix.from_rows([[z + sc(1) / 3, 2 * z], [0, 0]])
    for m in (a + b, b - a, -a, a.transpose(), a.kron(b), b.kron(a), 2 * a, a.rref()[0]):
        assert len({e.conductor for e in m.entries}) == 1


def test_public_constructor_coerces_and_validates():
    m = Matrix(1, 2, [1, Scalar.zeta(4)])
    assert all(isinstance(e, Scalar) and e.conductor == 4 for e in m.entries)
    with pytest.raises(ShapeError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(TypeError):
        Matrix(1, 1, ["x"])


# -- rational kernel against the Scalar path -------------------------------
#
# Conductor-1 matrices take the rational kernel (int products, fraction-free
# elimination on int rows); the same matrices promoted to conductor 2, which
# is still the field Q, take the Scalar Gauss-Jordan, and kron and products
# on their Scalars rather than ints.  A
# product is checked against `ref_product`, the dense Scalar triple loop
# below, at both conductors.  Every result must agree in value, and the
# rational results must be proper conductor-1 Scalars.


def ref_product(a: Matrix, b: Matrix) -> Matrix:
    """The dense Scalar triple loop: each cell starts at ZERO and adds x*y
    for every k with both factors nonzero, so a cell whose terms cancel is
    a zero at their conductor and a cell with no terms stays ZERO."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = ZERO
            for k in range(a.cols):
                x, y = a.at(i, k), b.at(k, j)
                if x and y:
                    acc = acc + x * y
            out.append(acc)
    return Matrix._of(a.rows, b.cols, out)


def assert_same_entries(got: Matrix, want: Matrix):
    """Same shape, conductor, and value and text of every entry; a lowering
    handed to got is the one its entries give afresh."""
    assert (got.rows, got.cols, got._n) == (want.rows, want.cols, want._n)
    assert [(e.conductor, e.coeffs) for e in got.entries] == [(e.conductor, e.coeffs) for e in want.entries]
    assert [str(e) for e in got.entries] == [str(e) for e in want.entries]
    if hasattr(got, "_low"):
        assert repr(got._low) == repr(fresh_lowering(got))


SHAPES = [(0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (2, 3), (3, 3), (4, 4), (5, 3), (4, 6)]


def rnd_rational(rng, rows, cols):
    """Mixed denominators, signs and zeros, plus a zero row and column."""
    zero_row = rng.randrange(rows) if rows > 2 else None
    zero_col = rng.randrange(cols) if cols > 2 else None
    out = []
    for i in range(rows):
        for j in range(cols):
            if i == zero_row or j == zero_col or rng.random() < 0.3:
                out.append(0)
            else:
                out.append(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 9, 10])))
    return Matrix(rows, cols, out)


def rnd_rank_deficient(rng, n, rank):
    return rnd_rational(rng, n, rank) * rnd_rational(rng, rank, n)


def promoted(m: Matrix) -> Matrix:
    return Matrix(m.rows, m.cols, [e.promote(2) for e in m.entries])


def assert_rational(m: Matrix):
    for e in m.entries:
        assert type(e) is Scalar and e.conductor == 1
        assert len(e.coeffs) == 1 and type(e.coeffs[0]) is Fraction


def both_paths(rng):
    """Seeded random cases: (rational matrix, its conductor-2 copy)."""
    for rows, cols in SHAPES:
        for _ in range(3):
            m = rnd_rational(rng, rows, cols)
            yield m, promoted(m)
    for n, rank in ((3, 1), (4, 2), (5, 3), (6, 4)):
        m = rnd_rank_deficient(rng, n, rank)
        yield m, promoted(m)


def test_rational_product_matches_scalar_path():
    rng = random.Random(101)
    for inner in (0, 1, 2, 3, 5):
        for rows, cols in SHAPES:
            a = rnd_rational(rng, rows, inner)
            b = rnd_rational(rng, inner, cols)
            got = a * b
            assert (got.rows, got.cols) == (rows, cols)
            assert_rational(got)
            assert_same_entries(got, ref_product(a, b))
            assert got == ref_product(promoted(a), promoted(b))
            # a cached lowering is reused, not stale
            assert a * b == got and a * promoted(b) == got


def test_rational_kron_matches_scalar_path():
    rng = random.Random(102)
    cases = list(both_paths(rng))
    for (a, pa), (b, pb) in zip(cases, cases[7:] + cases[:7]):
        got = a.kron(b)
        assert_rational(got)
        assert got == pa.kron(pb)
    ones = Matrix.from_rows([[1, 0], [Fraction(-1, 2), 1]])
    b = rnd_rational(rng, 2, 3)
    assert_rational(ones.kron(b))
    assert ones.kron(b) == promoted(ones).kron(promoted(b))


def test_rational_elimination_matches_scalar_path():
    rng = random.Random(103)
    for m, pm in both_paths(rng):
        red, pivots = m.rref()
        pred, ppivots = pm.rref()
        assert_rational(red)
        assert red == pred and pivots == ppivots
        assert m.rank() == pm.rank() == len(pivots)
        if m.is_square():
            det = m.det()
            assert type(det) is Scalar and det.conductor == 1
            assert det == pm.det()
        ker = mat_kernel(m)
        assert_rational(ker)
        assert ker == mat_kernel(pm)
        assert (ker.rows, ker.cols) == (m.cols, m.cols - len(pivots))
        assert (m * ker).is_zero()


def test_rational_solve_and_inverse_match_scalar_path():
    rng = random.Random(104)
    for m, pm in both_paths(rng):
        for b in (rnd_rational(rng, m.rows, 2), m * rnd_rational(rng, m.cols, 2)):
            x = mat_solve(m, b)
            px = mat_solve(pm, promoted(b))
            assert (x is None) == (px is None)
            if x is not None:
                assert_rational(x)
                assert x == px and m * x == b
        if m.is_square() and m.rank() == m.rows:
            inv = mat_inverse(m)
            assert_rational(inv)
            assert inv == mat_inverse(pm)
            assert m * inv == Matrix.identity(m.rows)
    inverted = 0
    for n in (1, 2, 3, 4, 5):
        m = Matrix.identity(n) + rnd_rational(rng, n, n)
        if m.rank() == n:
            inverted += 1
            assert mat_inverse(m) == mat_inverse(promoted(m))
    assert inverted >= 3


# -- lowering handoff --------------------------------------------------------
#
# A conductor-1 product with inner dimension above 1 hands its result the
# int rows it summed, reduced to the lcm of the result's denominators, so
# the next product need not lower the result again.


def fresh_lowering(m: Matrix):
    """What _lowered computes from m's entries alone."""
    return Matrix._of(m.rows, m.cols, list(m.entries))._lowered()


def test_chain_products_match_scalar_path_and_hand_over_fresh_lowerings():
    rng = random.Random(105)
    for inner in (2, 3, 5):
        for rows, cols in SHAPES:
            a = rnd_rational(rng, rows, inner)
            b = rnd_rational(rng, inner, inner)
            c = rnd_rational(rng, inner, cols)
            ab = a * b
            abc = ab * c
            assert abc == ref_product(ref_product(promoted(a), promoted(b)), promoted(c))
            assert a * (b * c) == abc
            assert ab._low == fresh_lowering(ab)
            assert abc._low == fresh_lowering(abc)


def test_products_that_cancel_to_integers_hand_over_d_1():
    a = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(-3, 4), Fraction(5, 6)]])
    b = Matrix.from_rows([[2, 4], [3, 0]])
    ab = a * b
    assert ab == Matrix.from_rows([[2, 2], [1, -3]])
    assert ab._low == (1, [[(0, 2), (1, 2)], [(0, 1), (1, -3)]]) == fresh_lowering(ab)
    m = Matrix.identity(3) + rnd_rational(random.Random(106), 3, 3)
    assert m.rank() == 3
    one = m * mat_inverse(m)
    assert one == Matrix.identity(3)
    assert one._low == (1, [[(0, 1)], [(1, 1)], [(2, 1)]]) == fresh_lowering(one)


# -- products off conductor 1 against the dense reference --------------------
#
# Products at conductor 3 and across conductors 1 and 3, with inner
# dimension 1 and above, must equal `ref_product` entry for entry: a cell
# whose terms cancel stays a zero at their conductor, and a cell with no
# terms stays ZERO, so the result keeps the conductor the reference gives.


def cyclotomic_cases(rng):
    """(a, b) pairs at conductors (3, 3), (1, 3) and (3, 1)."""
    shapes = [(1, 1, 1), (3, 1, 2), (1, 1, 4), (2, 2, 2), (3, 2, 4), (4, 3, 1), (2, 5, 3), (0, 2, 3), (3, 0, 2)]
    for rows, inner, cols in shapes:
        for na, nb in ((3, 3), (1, 3), (3, 1)):
            for _ in range(2):
                a = rnd_cyclotomic(rng, rows, inner, 3) if na == 3 else rnd_rational(rng, rows, inner)
                b = rnd_cyclotomic(rng, inner, cols, 3) if nb == 3 else rnd_rational(rng, inner, cols)
                yield a, b
    z = Scalar.zeta(3)
    # every cell cancels: z*1 + 1*(-z)
    yield Matrix.from_rows([[z, 1], [2 * z, 2]]), Matrix.from_rows([[1, 1], [-z, -z]])
    # across conductors: 1*z + 1*(-z), and a row with no terms
    yield Matrix.from_rows([[1, 1], [0, 0]]), Matrix.from_rows([[z, 0], [-z, 0]])
    yield Matrix.from_rows([[z, -z], [0, 0]]), Matrix.from_rows([[1, 2], [1, 2]])
    # a rational value at conductor 3: z * z^2 = 1
    yield Matrix.from_rows([[z, 0], [0, 0]]), Matrix.from_rows([[z * z, 0], [0, 1]])
    # outer products (inner dimension 1) with zero factors
    yield Matrix.from_rows([[z], [0], [1]]), Matrix.from_rows([[0, z, Fraction(1, 2)]])
    yield Matrix.from_rows([[0], [2]]), Matrix.from_rows([[z * z, 0]])
    # conductor-3 zeros that are entries, not cancellations
    zero3 = Scalar(3, [0, 0])
    yield Matrix(2, 2, [zero3, 1, 0, z]), Matrix(2, 2, [1, zero3, zero3, 0])


def test_cyclotomic_products_match_the_dense_reference():
    rng = random.Random(108)
    seen = set()
    for a, b in cyclotomic_cases(rng):
        got = a * b
        want = ref_product(a, b)
        assert_same_entries(got, want)
        assert a * b == got  # a lowering cached on a factor is reused, not stale
        seen.add((a._n, b._n, a.cols > 1))
        if a.cols == b.rows == b.cols:
            # a result's lowering feeds the next product
            assert_same_entries(got * b, ref_product(want, b))
            assert_same_entries(a * (b * b), ref_product(a, ref_product(b, b)))
    assert {(3, 3, True), (3, 3, False), (1, 3, True), (1, 3, False), (3, 1, True), (3, 1, False)} <= seen


# -- kron against the entrywise reference -------------------------------------
#
# `ref_kron` is the entrywise Scalar kron that the lowered kernel replaced: a
# cell is ZERO where a's entry is zero and the Scalar product otherwise (the
# Fractions multiplied when both factors have conductor 1), and the result
# meets at the lcm of its cells' conductors.  So it has conductor 1 when a is
# zero and lcm(a._n, b._n) otherwise, also when b is zero.  Every kron must
# equal it entry for entry, with the same conductor and text.


def ref_kron(a: Matrix, b: Matrix) -> Matrix:
    rat = a._n == 1 == b._n
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        for k in range(b.rows):
            brow = b.row(k)
            for x in arow:
                if not x:
                    out.extend([ZERO] * b.cols)
                elif not rat:
                    out.extend(x * y for y in brow)
                elif (f := x.coeffs[0]) == 1:
                    out.extend(brow)
                else:
                    out.extend(_rat(f * y.coeffs[0]) if y else ZERO for y in brow)
    return Matrix._of(a.rows * b.rows, a.cols * b.cols, out)


def rnd_at(rng, rows, cols, n):
    """Sparse entries at conductor n, or at conductors 1, 3 and 4 mixed
    when n is 0; a drawn entry may be a zero at its conductor."""
    def entry():
        if rng.random() < 0.35:
            return 0
        m = rng.choice((1, 3, 4)) if n == 0 else n
        return Scalar(m, [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(phi_degree(m))])

    return Matrix(rows, cols, [entry() for _ in range(rows * cols)])


def test_kron_matches_the_entrywise_reference():
    rng = random.Random(109)
    cases = [
        (rnd_at(rng, *sa, na), rnd_at(rng, *sb, nb))
        for na, nb in itertools.product((1, 2, 3, 4, 0), repeat=2)
        for sa, sb in zip(SHAPES, SHAPES[3:] + SHAPES[:3])
    ]
    zero3, zero4, z3 = Scalar(3, [0, 0]), Scalar(4, [0, 0]), Scalar.zeta(3)
    special = [Matrix(1, 1, [x]) for x in (0, zero3, 1, Fraction(-2, 3), Scalar.zeta(4), z3 * z3 * z3)]
    special += [Matrix(2, 3, [zero3] * 6), Matrix(3, 2, [zero4] * 6), Matrix.zeros(2, 2)]
    pool = [b for _, b in cases[::6]] + special
    cases += [(s, m) for s in special for m in pool] + [(m, s) for s in special for m in pool]
    handed = set()
    for a, b in cases:
        got = a.kron(b)
        assert_same_entries(got, ref_kron(a, b))
        if got is not a and got is not b:
            handed.add((got._n, hasattr(got, "_low")))
    assert {(1, True), (3, True), (12, True), (1, False), (3, False), (12, False)} <= handed
    one = special[2]
    for m in pool:
        if not m.is_zero():
            assert one.kron(m) is m and (m.kron(one) is m or m.rows == m.cols == 1)


# -- kernels against the two-rref reference ----------------------------------
#
# The reference reads a raw kernel basis off the rref of m and then reduces
# that basis with a second rref; mat_kernel must give the same canonical
# basis, entry for entry, at the same conductor and with the same text.


def two_rref_kernel(m: Matrix) -> Matrix:
    red, pivots = m.rref()
    free = [c for c in range(m.cols) if c not in pivots]
    raw = []
    for fc in free:
        v = [sc(0)] * m.cols
        v[fc] = sc(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.at(r, fc)
        raw.append(v)
    canon, _ = Matrix._of(len(raw), m.cols, [x for v in raw for x in v]).rref()
    vecs = [canon.row(i) for i in range(canon.rows) if any(canon.row(i))]
    return Matrix._of(len(vecs), m.cols, [x for v in vecs for x in v]).transpose()


def rnd_cyclotomic(rng, rows, cols, n=8):
    """Sparse entries of Q(zeta_n) with mixed denominators."""
    def entry():
        if rng.random() < 0.4:
            return 0
        return Scalar(n, [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(phi_degree(n))])

    return Matrix(rows, cols, [entry() for _ in range(rows * cols)])


def system_rows(*ms: Matrix) -> list:
    """The Scalar rows of each matrix, promoted to the lcm of their conductors."""
    n = lcm(*(m._n for m in ms))
    return [[[e.promote(n) for e in row] for row in m.to_rows()] for m in ms]


def test_right_solve_is_the_solve_of_the_transposes():
    # X A = B and A^T X^T = B^T, and the inverse, against the test-local
    # Gauss-Jordan (ref_solve) run on the Scalar rows of the transposed
    # system, which shares no code with _eliminate: value, conductor and
    # text, None where no X exists, the singular error, and for the right
    # solve and the inverse a handed lowering equal to a fresh one; on A
    # with a zero row or column, at conductors 1, 3 and 8 and across 1, 3
    # and 4
    rng = random.Random(211)
    makers = [rnd_rational, rnd_cyclotomic, lambda r, p, q: rnd_at(r, p, q, 3), lambda r, p, q: rnd_at(r, p, q, 0)]
    solved = unsolvable = 0
    for (k, cols, j), make_a, make_x in itertools.product([(1, 1, 1), (2, 5, 3), (3, 4, 2), (3, 9, 3), (4, 4, 1)], makers, makers):
        a, x = make_a(rng, k, cols), make_x(rng, j, k)
        for b in (x * a, make_x(rng, j, cols)):
            ta, tb = system_rows(a.transpose(), b.transpose())
            want = ref_solve(ta, tb, k, j)
            got, left = mat_rsolve(a, b), mat_solve(a.transpose(), b.transpose())
            assert (got is None) == (left is None) == (want is None)
            if want is None:
                unsolvable += 1
                continue
            assert_equals_ref(got, [list(r) for r in zip(*want)], j, k)
            assert_equals_ref(left, want, k, j, handed=False)  # a transpose holds no lowering
            solved += 1
    assert solved and unsolvable
    inverted = singular = 0
    for make, n in itertools.product(makers, (1, 2, 3, 4)):
        rows = make(rng, n, n).to_rows()
        deficient = rows[:-1] + [[sum((r[c] for r in rows[:-1]), ZERO) for c in range(n)]]  # last row: the others' sum
        for m in (Matrix.from_rows(rows), Matrix.from_rows(deficient)):
            mr, ident = system_rows(m, Matrix.identity(n))
            want = ref_solve(mr, ident, n, n)
            if want is None:
                with pytest.raises(ValueError) as err:
                    mat_inverse(m)
                assert type(err.value) is ValueError and str(err.value) == "matrix is singular"
                singular += 1
            else:
                assert_equals_ref(mat_inverse(m), want, n, n)
                inverted += 1
    assert inverted >= 8 and singular >= 8
    with pytest.raises(ShapeError):
        mat_rsolve(Matrix.identity(2), Matrix.identity(3))


KERNEL_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (1, 6), (3, 7), (5, 2), (7, 3), (4, 4), (6, 6)]


def kernel_cases(rng):
    for make in (rnd_rational, rnd_cyclotomic):
        for rows, cols in KERNEL_SHAPES:
            yield Matrix.zeros(rows, cols)
            for _ in range(2):
                yield make(rng, rows, cols)
        for n, rank in ((4, 1), (5, 2), (6, 3)):
            yield make(rng, n, rank) * make(rng, rank, n)  # rank deficient
            yield make(rng, n + 2, n) * Matrix.identity(n)  # tall, usually full column rank
    yield Matrix.identity(4)
    yield Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    z = Scalar.zeta(8)
    yield Matrix.from_rows([[z, z * z, 1], [1, z, -z * z * z]])
    # the kernel is spanned by unit vectors after every pivot: its zeros still
    # come from the conductor-8 rref, so the kernel has conductor 8
    yield Matrix.from_rows([[z, 0]])
    yield Matrix.from_rows([[z, 1, 0, 0], [0, z, 0, 0]])


def test_kernel_matches_two_rref_reference():
    rng = random.Random(107)
    full_column_rank = 0
    for m in kernel_cases(rng):
        got, want = mat_kernel(m), two_rref_kernel(m)
        assert (got.rows, got.cols) == (want.rows, want.cols) == (m.cols, m.cols - m.rank())
        assert got._n == want._n
        assert [(e.conductor, e.coeffs) for e in got.entries] == [(e.conductor, e.coeffs) for e in want.entries]
        assert str(got) == str(want)
        assert (m * got).is_zero()
        full_column_rank += m.cols > 0 and got.cols == 0
    assert full_column_rank >= 5


# -- elimination against a Fraction Gauss-Jordan reference --------------------
#
# The reference is the Gauss-Jordan elimination on bare Fractions that the
# rational kernel once ran: each pivot scaled to 1, then cleared from
# every other row.  The kernel is read off one rref with the columns
# reversed, a solve off the rref of [A | B], and the determinant off a
# forward elimination.  Every conductor-1 result must equal it entry for
# entry, with the same conductor and text.


def ref_echelon(rows: list, ncols: int) -> tuple[list, list]:
    m = [list(r) for r in rows]
    pivots: list = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        prow = m[r] = [inv * x for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [x - f * y for x, y in zip(m[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def ref_kernel(rows: list, ncols: int) -> list:
    """Kernel basis vectors, leading positions ascending."""
    rev, pivots = ref_echelon([r[::-1] for r in rows], ncols)
    vecs = []
    for f in range(ncols - 1, -1, -1):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[ncols - 1 - f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[ncols - 1 - p] = -rev[r][f]
        vecs.append(v)
    return vecs


def ref_solve(a: list, b: list, acols: int, bcols: int):
    red, pivots = ref_echelon([ra + rb for ra, rb in zip(a, b)], acols + bcols)
    if any(p >= acols for p in pivots):
        return None
    out = [[Fraction(0)] * bcols for _ in range(acols)]
    for r, p in enumerate(pivots):
        out[p] = red[r][acols:]
    return out


def ref_det(rows: list) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def frac_rows(m: Matrix) -> list:
    return [[e.coeffs[0] for e in m.row(i)] for i in range(m.rows)]


def assert_equals_ref(got: Matrix, want: list, rows: int, cols: int, handed: bool = True):
    """got holds exactly the values of want, Fractions or Scalars, at the
    conductor they meet at (1 for Fractions), and when handed, the lowering
    handed to it is the one its entries give afresh."""
    ref = Matrix(rows, cols, [x for r in want for x in r])
    assert (got.rows, got.cols) == (rows, cols)
    assert got._n == ref._n
    assert [(e.conductor, e.coeffs) for e in got.entries] == [(e.conductor, e.coeffs) for e in ref.entries]
    assert str(got) == str(ref)
    if handed:
        assert got._low == fresh_lowering(got)


def ref_kernel_matrix(m: Matrix) -> list:
    """The rows of ref_kernel's basis as the columns of a m.cols x k matrix."""
    kernel = ref_kernel(m.to_rows(), m.cols)
    return [list(r) for r in zip(*kernel)] if kernel else [[]] * m.cols


fraction_entries = st.tuples(st.integers(0, 9), st.integers(-20, 20), st.integers(1, 12)).map(
    lambda t: Fraction(0) if t[0] < 4 else Fraction(t[1], t[2])
)


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    """0-7 x 0-7 rational matrices, about 40% zeros, with some rows
    replaced by scaled copies of others to force rank deficiency."""
    rows = draw(st.integers(0, 7)) if rows is None else rows
    cols = draw(st.integers(0, 7)) if cols is None else cols
    m = [draw(st.lists(fraction_entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows > 1:
        for dst, src, s in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1), fraction_entries), max_size=3)):
            m[dst] = [s * x for x in m[src]] if s else list(m[src])
    return m


@given(rational_matrices(), st.integers(0, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_fraction_gauss_jordan(rows, bcols, data):
    nr, nc = len(rows), len(rows[0]) if rows else data.draw(st.integers(0, 7))
    m = Matrix(nr, nc, [x for r in rows for x in r])
    want, want_pivots = ref_echelon(rows, nc)
    red, pivots = m.rref()
    assert_equals_ref(red, want, nr, nc)
    assert pivots == want_pivots
    assert m.rank() == len(want_pivots)

    kernel = ref_kernel(rows, nc)
    ker = mat_kernel(m)
    assert_equals_ref(ker, [list(r) for r in zip(*kernel)] if kernel else [[]] * nc, nc, len(kernel))

    xs = data.draw(rational_matrices(nc, 2))
    for b in (data.draw(rational_matrices(nr, bcols)), frac_rows(m * Matrix(nc, 2, [x for r in xs for x in r]))):
        bm = Matrix(nr, len(b[0]) if b else bcols, [x for r in b for x in r])
        got, sol = mat_solve(m, bm), ref_solve(rows, b, nc, bm.cols)
        right = mat_rsolve(m.transpose(), bm.transpose())
        assert (got is None) == (right is None) == (sol is None)
        if sol is not None:
            assert_equals_ref(got, sol, nc, bm.cols, handed=False)  # a transpose holds no lowering
            assert_equals_ref(right, [list(r) for r in zip(*sol)] if sol else [[]] * bm.cols, bm.cols, nc)

    if nr == nc:
        det = m.det()
        assert (det.conductor, det.coeffs) == (1, (ref_det(rows),))
        inv = ref_solve(rows, [[Fraction(int(i == j)) for j in range(nr)] for i in range(nr)], nr, nr)
        if len(want_pivots) < nr:
            with pytest.raises(ValueError) as err:
                mat_inverse(m)
            assert type(err.value) is ValueError and str(err.value) == "matrix is singular"
        else:
            assert_equals_ref(mat_inverse(m), inv, nr, nr)


# -- the split-prime certificate off conductor 1 --------------------------------
#
# Off conductor 1 a full rank of the image in F_p, p = split_prime(n),
# answers rank without elimination; anything else falls back to the
# Scalar Gauss-Jordan.  Both routes must give the same answers, also on
# matrices whose rank is planted below full, and the kernel must agree
# with both.

SPLIT_CONDUCTORS = (2, 3, 4, 5, 8, 12)


@st.composite
def cyclotomic_matrices(draw):
    """0-6 x 1-6 matrices over Q(zeta_n), about 40% zeros, with up to three
    rows replaced by combinations s*row_a + t*row_b of others, s and t
    rationals or powers of zeta_n."""
    n = draw(st.sampled_from(SPLIT_CONDUCTORS))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    coeffs = st.lists(fraction_entries, min_size=phi_degree(n), max_size=phi_degree(n))
    entry = st.one_of(st.just(ZERO), st.just(ZERO), coeffs.map(lambda c: Scalar(n, c)))
    m = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    factors = st.one_of(fraction_entries.map(sc), st.integers(0, n - 1).map(lambda k: Scalar.zeta(n) ** k))
    if rows > 1:
        index = st.integers(0, rows - 1)
        for dst, a, b, f, g in draw(st.lists(st.tuples(index, index, index, factors, factors), max_size=3)):
            m[dst] = [f * x + g * y for x, y in zip(m[a], m[b])]
    return Matrix(rows, cols, [x for r in m for x in r])


@given(cyclotomic_matrices())
@settings(max_examples=200, deadline=None)
def test_split_prime_rank_and_kernel_match_elimination(m):
    assert m.rank() == len(m._echelon()[1])
    assert_equals_ref(mat_kernel(m), ref_kernel_matrix(m), m.cols, m.cols - m.rank())


def counted_echelon(monkeypatch) -> list:
    calls = []
    real = Matrix._echelon

    def counted(self):
        calls.append((self.rows, self.cols))
        return real(self)

    monkeypatch.setattr(Matrix, "_echelon", counted)
    return calls


@pytest.mark.parametrize("n", SPLIT_CONDUCTORS)
def test_full_rank_off_conductor_1_needs_no_elimination(monkeypatch, n):
    # the character table of Z/n, and its first two columns: full rank,
    # which the certificate answers; the kernels are checked by value
    z = Scalar.zeta(n)
    table = Matrix(n, n, [z ** (s * t % n) for s in range(n) for t in range(n)])
    tall = table * Matrix(n, 2, [1, 0, 0, 1] + [0] * (2 * n - 4))
    want = [ref_kernel_matrix(m) for m in (table, tall)]
    calls = counted_echelon(monkeypatch)
    assert table.rank() == n and tall.rank() == 2
    assert calls == []
    for m, ref in zip((table, tall), want):
        assert_equals_ref(mat_kernel(m), ref, m.cols, 0)


def test_a_deficient_modular_rank_falls_back_to_elimination(monkeypatch):
    # p maps to 0 in F_p, so diag(p, zeta_5) has modular rank 1 and rank 2
    p, _ = split_prime(5)
    m = Matrix.from_rows([[p, 0], [0, Scalar.zeta(5)]])
    assert m._n == 5 and not _full_rank_mod_p(m)
    calls = counted_echelon(monkeypatch)
    assert m.rank() == 2
    assert_equals_ref(mat_kernel(m), [[], []], 2, 0)
    assert calls == [(2, 2)]


def test_a_denominator_p_gives_no_certificate():
    p, _ = split_prime(5)
    z = Scalar.zeta(5)
    full = Matrix.from_rows([[Fraction(1, p), z], [z, 1]])
    deficient = Matrix.from_rows([[Fraction(1, p), z], [z / p, z * z]])
    for m, rank in ((full, 2), (deficient, 1)):
        assert not _full_rank_mod_p(m)
        assert m.rank() == len(m._echelon()[1]) == rank
        assert_equals_ref(mat_kernel(m), ref_kernel_matrix(m), 2, 2 - rank)


# -- one decision of A * B == C --------------------------------------------------
#
# `_is_product` decides a * b == c on the three lowerings, building no
# product.  It must answer as that comparison does at conductors 1, 3 and 8
# and across them, on every shape (0 rows and 0 columns included), on cells
# whose terms cancel, and on a c of the wrong shape; an inner mismatch
# raises ShapeError, as the product does.


@st.composite
def matrices_at(draw, rows: int, cols: int, n: int) -> Matrix:
    """A rows x cols matrix of entries at conductor n, about half of them zero."""
    coeffs = st.lists(fraction_entries, min_size=phi_degree(n), max_size=phi_degree(n))
    entry = st.one_of(st.just(ZERO), coeffs.map(lambda c: Scalar(n, c)))
    return Matrix(rows, cols, draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))


@pytest.mark.parametrize("na, nb", [(1, 1), (3, 3), (8, 8), (1, 3), (3, 8), (8, 1)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_is_product_is_the_product_comparison(na, nb, data):
    conductors = st.sampled_from((1, 3, 8))
    rows, inner, cols = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = data.draw(matrices_at(rows, inner, na)), data.draw(matrices_at(inner, cols, nb))
    if inner > 1 and data.draw(st.booleans()):
        # column l of a repeats column k and row l of b negates row k, so
        # the terms of k and l cancel in every cell
        k, l = data.draw(st.permutations(range(inner)))[:2]
        ar, br = a.to_rows(), b.to_rows()
        for r in ar:
            r[l] = r[k]
        br[l] = [-x for x in br[k]]
        a, b = Matrix(rows, inner, [x for r in ar for x in r]), Matrix(inner, cols, [x for r in br for x in r])
    p = a * b
    n = lcm(p._n, data.draw(conductors))
    cases = [
        (p, True),
        (Matrix._of(rows, cols, p.entries), True),  # holding no lowering
        (Matrix(rows, cols, [e.promote(n) for e in p.entries]), True),
        (data.draw(matrices_at(rows, cols, data.draw(conductors))), None),
        (Matrix.zeros(rows + 1, cols), False),
        (Matrix.zeros(rows, cols + 1), False),
        (Matrix.zeros(cols, rows), None if rows == cols else False),
    ]
    if p.entries:
        i = data.draw(st.integers(0, len(p.entries) - 1))
        bump = data.draw(matrices_at(1, 1, data.draw(conductors)).filter(lambda m: any(m.entries))).entries[0]
        cells = list(p.entries)
        cells[i] = cells[i] + bump
        cases.append((Matrix._of(rows, cols, cells), False))
    for c, want in cases:
        assert _is_product(a, b, c) == (p == c)
        if want is not None:
            assert (p == c) is want
    wide = data.draw(matrices_at(inner + 1, cols, nb))
    for decide in (lambda: a * wide, lambda: _is_product(a, wide, p)):
        with pytest.raises(ShapeError, match=f"cannot multiply {rows}x{inner} by {inner + 1}x{cols}"):
            decide()
