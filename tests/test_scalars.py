"""Field axioms and cyclotomic reduction for the exact scalar type."""

import random
import time
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrec.errors import DivisionByZero
from hopfrec.matrices import lowering
from hopfrec.scalars import (
    ONE,
    ZERO,
    Scalar,
    _mul_int,
    _reduce,
    _reduction_height,
    cyclotomic_poly,
    packing,
    phi_degree,
    same_sides,
    sc,
    split_prime,
    vanishes,
)

fracs = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)
rationals = fracs.map(lambda f: sc(f))

# conductor-4 elements a + b*zeta4 with bounded rational coordinates
gauss = st.tuples(fracs, fracs).map(lambda ab: Scalar(4, ab))

scalars_any = st.one_of(rationals, gauss)


def test_rational_arithmetic_basics():
    assert sc(Fraction(1, 2)) + sc(Fraction(1, 3)) == Scalar.rational(5, 6)
    assert sc(2) * sc(3) == sc(6)
    assert sc(Fraction(2, 3)).inverse() == Scalar.rational(3, 2)
    assert sc(7) - sc(7) == ZERO
    assert ONE / sc(4) == Scalar.rational(1, 4)


def test_zeta4_defining_relation():
    z = Scalar.zeta(4)
    assert z * z == sc(-1)
    assert z * z * z * z == ONE
    # (1+i)(1-i) = 2
    assert (ONE + z) * (ONE - z) == sc(2)
    assert (ONE + z).inverse() == (ONE - z) / sc(2)


def test_small_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert [phi_degree(n) for n in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def _divisor_recursion(n, cache={}):
    """Phi_n as x^n - 1 divided by Phi_d for every proper divisor d of n:
    the reference for cyclotomic_poly."""
    if n not in cache:
        num = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                den = _divisor_recursion(d)
                k = len(den) - 1
                for i in range(len(num) - 1, k - 1, -1):
                    for j in range(k):
                        num[i - k + j] -= num[i] * den[j]
                assert not any(num[:k])
                num = num[k:]
        cache[n] = tuple(num)
    return cache[n]


def test_cyclotomic_poly_from_the_radical_matches_the_divisor_recursion():
    assert all(cyclotomic_poly(n) == _divisor_recursion(n) for n in range(1, 400))
    t0 = time.perf_counter()
    phi = cyclotomic_poly.__wrapped__(30000)
    assert time.perf_counter() - t0 < 1.0
    assert len(phi) == phi_degree(30000) + 1 and phi[::1000] == cyclotomic_poly(30)


def test_phi_degree_by_euler_product_is_the_degree_of_phi_n():
    assert all(phi_degree(n) == len(cyclotomic_poly(n)) - 1 for n in range(1, 61))
    assert phi_degree(10**12) == 4 * 10**11
    with pytest.raises(ValueError):
        phi_degree(0)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 8, 12])
def test_int_residue_product_matches_scalar_mul(n):
    """Lower two residues to ints at D = lcm of their denominators, multiply
    them mod Phi_n in ints, divide by D^2: the Scalar product."""
    rng = random.Random(n)
    for _ in range(25):
        a, b = (
            Scalar(n, [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(phi_degree(n))])
            for _ in range(2)
        )
        d = lcm(*(q.denominator for q in a.coeffs + b.coeffs))
        low_a, low_b = ([q.numerator * (d // q.denominator) for q in x.coeffs] for x in (a, b))
        got = _mul_int(low_a, low_b, n)
        assert all(type(c) is int for c in got)
        assert Scalar(n, [Fraction(c, d * d) for c in got]) == a * b


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_rational_times_residue_matches_the_convolution(n):
    """A conductor-1 factor scales the other's coefficients; the product is
    the one the int convolution mod Phi_n gives on the rational promoted to
    conductor n, a zero factor included, in either operand order."""
    rng = random.Random(n)
    residues = [Scalar.zeta(n), Scalar(n, [0] * phi_degree(n))]
    residues += [Scalar(n, [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(phi_degree(n))])]
    for r in (0, 1, -1, 7, Fraction(2, 3), Fraction(-5, 4)):
        for x in residues:
            a = sc(r).promote(n)
            d = lcm(*(q.denominator for q in a.coeffs + x.coeffs))
            low_a, low_x = ([q.numerator * (d // q.denominator) for q in y.coeffs] for y in (a, x))
            want = Scalar(n, [Fraction(c, d * d) for c in _mul_int(low_a, low_x, n)])
            for f in (r, sc(r)):
                for got in (f * x, x * f):
                    assert (got.conductor, got.coeffs) == (n, want.coeffs)
                    assert all(type(c) is Fraction for c in got.coeffs)


# -- the packed-int ring -------------------------------------------------------

def test_reduction_height_bounds_every_power_of_x():
    for n in range(2, 61):
        worst = max(max(map(abs, _reduce([0] * j + [1], n))) for j in range(n))
        assert worst <= _reduction_height(n), n


def residues(n):
    """Residues at a conductor dividing n, with denominators."""
    def at(m):
        return st.lists(fracs, min_size=phi_degree(m), max_size=phi_degree(m)).map(lambda cs: Scalar(m, cs))

    return st.sampled_from([m for m in range(1, n + 1) if n % m == 0]).flatmap(at)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_packed_decision_is_scalar_equality(data):
    """Sums of products of t factors, against the same sums with two factors
    of some terms multiplied out beside a factor 1 (equal values whose ints
    differ before reduction mod M), and sometimes one factor replaced."""
    n = data.draw(st.sampled_from([3, 4, 5, 8, 12, 15, 21]))
    t = data.draw(st.integers(1, 3))
    lhs = data.draw(st.lists(st.lists(residues(n), min_size=t, max_size=t), min_size=1, max_size=4))
    rhs = [[p[0] * p[1], ONE, *p[2:]] if t > 1 and data.draw(st.booleans()) else list(p) for p in lhs]
    rhs.reverse()
    if data.draw(st.booleans()):
        rhs[0][0] = data.draw(residues(n))

    def value(side):
        return sum((prod(p, start=ONE) for p in side), ZERO)

    # zeta_n puts the ring at conductor n when every factor lies below it
    d, m, low, high = packing([Scalar.zeta(n)] + [x for p in lhs + rhs for x in p], [(len(lhs), t), (len(rhs), t)])
    assert m > 0 and d >= 1

    def packed(side):
        return sum(prod(low(x) for x in p) for p in side)

    assert ((packed(lhs) - packed(rhs)) % m == 0) == (value(lhs) == value(rhs))
    # each side reads back, from its own int, as its value at the ring's conductor
    for side in (lhs, rhs):
        got = high(packed(side), d**t)
        assert (got.conductor, got.coeffs) == (n, value(side).promote(n).coeffs)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_same_sides_is_scalar_equality_of_vectors(data):
    """Cell k holds x*y on the left, scaled by f, against f*x*y, or a drawn
    z, times D on the right: equal values whose ints differ before reduction
    mod M.  As lists, and as dicts where the left keeps a cancelled cell,
    same_sides decides as the Scalar vectors compare."""
    n = data.draw(st.sampled_from([1, 3, 8]))
    f = data.draw(st.integers(1, 3))
    cells = data.draw(st.lists(st.tuples(residues(n), residues(n)), min_size=1, max_size=4))
    want = [f * x * y for x, y in cells]
    got = [data.draw(residues(n)) if data.draw(st.booleans()) else w for w in want]
    d, m, low, _ = packing([Scalar.zeta(n), sc(f)] + [x for c in cells for x in c] + want + got, [(1, 3)] * 2)
    a = [low(x) * low(y) for x, y in cells]
    b = [low(z) * d for z in got]
    same = want == got
    assert same_sides(a, b, m, f) == same
    assert same_sides(dict(enumerate(a)) | {len(a): m}, dict(enumerate(b)), m, f) == same
    assert vanishes(f * a[0] - b[0], m) == (want[0] == got[0])


def test_the_packing_bound_is_load_bearing():
    """3 * (-5 + 6 zeta_3) is not 0, yet at B' = 16, twice every input
    coefficient, its ints 3 * 91 are Phi_3(16) = 273.  The bound for one
    product of two factors picks a B that tells them apart, and at which
    the product's int reads back as itself."""
    x, y = sc(3), Scalar(3, [-5, 6])
    small = 16
    assert x * y != ZERO and small > 2 * 6
    assert 3 * (-5 + 6 * small) % (small * small + small + 1) == 0
    d, m, low, high = packing([x, y], [(1, 2), (1, 0)])
    big = low(Scalar.zeta(3))
    assert d == 1 and small < big and m == big * big + big + 1
    assert low(x) * low(y) % m != 0
    assert high(low(x) * low(y), 1) == x * y == Scalar(3, [-15, 18])


def test_conductor_1_packing_is_the_rational_lowering():
    rng = random.Random(1)
    values = [sc(Fraction(rng.randint(-50, 50), rng.randint(1, 30))) for _ in range(40)] + [ZERO]
    d, m, low, high = packing(values, [(5, 3)])
    assert m == 0
    assert d == lcm(*(x.as_fraction().denominator for x in values))
    assert [low(x) for x in values] == [x.as_fraction() * d for x in values]
    assert all(type(low(x)) is int for x in values)
    assert [high(low(x), d) for x in values] == values
    ld, llow = lowering(values)
    assert ld == d and [llow(x) for x in values] == [low(x) for x in values]


def test_conductor_promotion_and_cross_equality():
    # zeta2 is -1; conductor-2 values compare equal to plain rationals
    assert Scalar(2, (-1,)) == sc(-1)
    z3, z4 = Scalar.zeta(3), Scalar.zeta(4)
    w = z3 * z4
    assert w.conductor == 12
    acc = ONE
    for _ in range(12):
        acc = acc * w
    assert acc == ONE
    # zeta6 = -zeta3^2 (primitive 6th root from the 3rd)
    z6 = Scalar.zeta(6)
    assert z6 == -(z3 * z3)


def test_promotion_to_a_non_multiple_is_a_value_error():
    with pytest.raises(ValueError, match="conductor 3 to 5"):
        Scalar.zeta(3).promote(5)


def test_zero_division_raises():
    with pytest.raises(DivisionByZero):
        ZERO.inverse()
    with pytest.raises(DivisionByZero):
        sc(1) / ZERO


def test_is_rational_and_as_fraction():
    z = Scalar.zeta(4)
    sq = z * z
    assert sq.is_rational() and sq.as_fraction() == Fraction(-1)
    assert not z.is_rational()


@given(scalars_any, scalars_any, scalars_any)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars_any)
@settings(max_examples=200, deadline=None)
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        assert a * a.inverse() == ONE


@given(gauss, gauss)
@settings(max_examples=100, deadline=None)
def test_subtraction_consistency(a, b):
    assert (a - b) + b == a
    assert -(a - b) == b - a


def test_lowest_terms_representation():
    x = Scalar.rational(2, 4)
    assert x.coeffs[0] == Fraction(1, 2)
    y = Scalar.rational(-3, -6)
    assert y.coeffs[0] == Fraction(1, 2)


def test_reduction_mod_cyclotomic_keeps_length():
    # multiply two conductor-12 elements; coefficient vector stays at phi(12)
    z = Scalar.zeta(12)
    w = (z + ONE) * (z * z + z + ONE)
    assert w.conductor == 12 and len(w.coeffs) == 4


# -- arithmetic results against a reference built by the validating constructor

def in_field(n):
    """Elements of Q(zeta_n), made through the public constructor."""
    return st.lists(fracs, min_size=phi_degree(n), max_size=phi_degree(n)).map(
        lambda cs: Scalar(n, cs)
    )


# same conductor (1 and 8) and mixed conductors (1 x 4, 4 x 8), both orders;
# Phi_4 and Phi_8 are binomials, so conductors 3, 5, 12 and 15 (alone, mixed
# and beside a rational) reduce against Phi_n with -1 and 0 coefficients
CONDUCTOR_PAIRS = [(1, 1), (8, 8), (1, 4), (4, 1), (4, 8), (8, 4)]
CONDUCTOR_PAIRS += [(3, 3), (5, 5), (12, 12), (15, 15), (3, 5), (5, 15), (1, 15)]
scalar_pairs = st.sampled_from(CONDUCTOR_PAIRS).flatmap(
    lambda mn: st.tuples(in_field(mn[0]), in_field(mn[1]))
)
plain_numbers = st.one_of(st.integers(-1000, 1000), fracs)


def ref_poly(x, n):
    """x as coefficients of powers of zeta_n; x is an int, a Fraction or a
    Scalar whose conductor divides n."""
    if not isinstance(x, Scalar):
        return [Fraction(x)]
    stride = n // x.conductor
    out = [Fraction(0)] * ((len(x.coeffs) - 1) * stride + 1)
    for k, c in enumerate(x.coeffs):
        out[k * stride] = c
    return out


def ref_scalar(poly, n):
    """The residue of poly modulo Phi_n, through the validating constructor."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    p = list(poly) + [Fraction(0)] * max(0, deg - len(poly))
    for k in range(len(p) - 1, deg - 1, -1):
        for i, pc in enumerate(phi):
            p[k - deg + i] -= p[k] * pc
    return Scalar(n, p[:deg])


def conductor_of(x):
    return x.conductor if isinstance(x, Scalar) else 1


def ref_add(x, y, sign=1):
    n = conductor_of(x) * conductor_of(y) // gcd(conductor_of(x), conductor_of(y))
    p, q = ref_poly(x, n), ref_poly(y, n)
    size = max(len(p), len(q))
    p += [Fraction(0)] * (size - len(p))
    q += [Fraction(0)] * (size - len(q))
    return ref_scalar([a + sign * b for a, b in zip(p, q)], n)


def ref_mul(x, y):
    n = conductor_of(x) * conductor_of(y) // gcd(conductor_of(x), conductor_of(y))
    p, q = ref_poly(x, n), ref_poly(y, n)
    conv = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            conv[i + j] += a * b
    return ref_scalar(conv, n)


def assert_same(result, expected):
    """Same conductor, same coefficients, and the representation invariant."""
    assert result.conductor == expected.conductor
    assert result.coeffs == expected.coeffs
    assert type(result.coeffs) is tuple
    assert all(type(c) is Fraction for c in result.coeffs)
    assert len(result.coeffs) == phi_degree(result.conductor)
    with pytest.raises(AttributeError):
        result.coeffs = expected.coeffs
    with pytest.raises(AttributeError):
        result.conductor = 1
    with pytest.raises(TypeError):
        hash(result)


@given(scalar_pairs)
@settings(max_examples=150, deadline=None)
def test_scalar_operations_match_reference(pair):
    a, b = pair
    assert_same(a + b, ref_add(a, b))
    assert_same(a - b, ref_add(a, b, -1))
    assert_same(b - a, ref_add(b, a, -1))
    assert_same(a.__rsub__(b), ref_add(b, a, -1))
    assert_same(a * b, ref_mul(a, b))
    assert_same(-a, ref_add(0, a, -1))
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        inv = a.inverse()
        assert_same(inv, Scalar(a.conductor, inv.coeffs))
        assert_same(ref_mul(a, inv), ref_scalar([Fraction(1)], a.conductor))


# odd primes, prime powers, n = 2 mod 4 and composites, beside 1, 4 and 8
INVERSE_CONDUCTORS = [2, 3, 5, 6, 7, 9, 12, 15]


@given(st.sampled_from(INVERSE_CONDUCTORS).flatmap(in_field))
@settings(max_examples=200, deadline=None)
def test_inverse_matches_reference_at_every_kind_of_conductor(a):
    n = a.conductor
    if not a:
        with pytest.raises(DivisionByZero):
            a.inverse()
        return
    inv = a.inverse()
    assert_same(inv, Scalar(n, inv.coeffs))
    assert_same(ref_mul(a, inv), ref_scalar([Fraction(1)], n))
    assert_same(inv.inverse(), a)


def test_inverse_at_conductor_97():
    rng = random.Random(97)
    a = Scalar(97, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(phi_degree(97))])
    t0 = time.perf_counter()
    inv = a.inverse()
    assert time.perf_counter() - t0 < 10.0
    assert_same(inv, Scalar(97, inv.coeffs))
    assert_same(ref_mul(a, inv), ref_scalar([Fraction(1)], 97))


def test_split_prime_is_1_mod_n_with_a_root_of_order_n():
    # p is checked prime by trial division, independently of Miller-Rabin
    for n in [*range(1, 65), 97, 211, 401]:
        p, r = split_prime(n)
        assert p > 1 << 31 and (p - 1) % n == 0
        assert p % 2 and all(p % q for q in range(3, isqrt(p) + 1, 2))
        assert pow(r, n, p) == 1
        assert all(pow(r, d, p) != 1 for d in range(1, n) if n % d == 0)


@given(st.sampled_from([1, 8]).flatmap(in_field), plain_numbers)
@settings(max_examples=150, deadline=None)
def test_plain_number_operands_on_either_side(s, x):
    assert_same(sc(x), ref_scalar([Fraction(x)], 1))
    if x:
        assert_same(sc(x).inverse(), ref_scalar([1 / Fraction(x)], 1))
    assert_same(x + s, ref_add(x, s))
    assert_same(s + x, ref_add(s, x))
    assert_same(x - s, ref_add(x, s, -1))
    assert_same(s - x, ref_add(s, x, -1))
    assert_same(x * s, ref_mul(x, s))
    assert_same(s * x, ref_mul(s, x))


@given(st.sampled_from([1, 4, 8]).flatmap(in_field))
@settings(max_examples=100, deadline=None)
def test_truth_value_is_nonzero(s):
    assert bool(s) is (not s.is_zero())
    assert bool(s - s) is False
    assert bool(s.promote(8)) is bool(s)


def test_public_constructor_validates():
    with pytest.raises(ValueError):
        Scalar(8, (1, 2, 3))
    with pytest.raises(ValueError):
        Scalar(1, ())
    s = Scalar(4, (2, Fraction(1, 2)))
    assert all(type(c) is Fraction for c in s.coeffs)
    assert s.coeffs == (Fraction(2), Fraction(1, 2))
