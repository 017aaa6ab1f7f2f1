"""Exact linear algebra: kernels, solving, kron, determinism."""

import random
from fractions import Fraction

import pytest

from hopfrec.errors import ShapeError
from hopfrec.matrices import (
    Matrix,
    block_diag,
    mat_inverse,
    mat_kernel,
    mat_solve,
    permutation_matrix,
)
from hopfrec.scalars import Scalar, sc


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
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(Matrix.from_rows([[1, 1], [1, 1]]))


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


def test_block_diag():
    a = Matrix.from_rows([[1]])
    b = Matrix.from_rows([[2, 0], [0, 3]])
    m = block_diag([a, b])
    assert m.rows == 3 and m.cols == 3
    assert m.at(0, 0) == sc(1) and m.at(1, 1) == sc(2) and m.at(2, 2) == sc(3)
    assert m.at(0, 1).is_zero() and m.at(2, 0).is_zero()
    assert block_diag([]) == Matrix.identity(0)


def test_permutation_matrix_convention():
    # (Pv)[i] = v[source_of[i]]
    p = permutation_matrix([2, 0, 1])
    v = Matrix.column([sc(10), sc(20), sc(30)])
    pv = p * v
    assert [pv.at(i, 0) for i in range(3)] == [sc(30), sc(10), sc(20)]
    q = permutation_matrix([1, 2, 0])
    assert p * q == Matrix.identity(3)


def test_det_and_rank():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert a.det() == sc(-2)
    assert a.rank() == 2
    assert Matrix.from_rows([[1, 2], [2, 4]]).rank() == 1
    assert Matrix.zeros(3, 3).det().is_zero()


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
# Conductor-1 matrices take the rational kernel (int products, Fraction
# elimination); the same matrices promoted to conductor 2, which is still
# the field Q, take the Scalar loops.  Every result must agree in value,
# and the rational results must be proper conductor-1 Scalars.

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
            assert got == promoted(a) * promoted(b)
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
