"""Exact scalars: elements of cyclotomic number fields Q(zeta_n).

A Scalar is a residue modulo the n-th cyclotomic polynomial Phi_n with
rational coefficients.  Conductor n = 1 encodes a plain rational.  Every
operation is exact; equality is decidable; no floats anywhere.

Representation constraint: coefficients are a tuple of Fraction of length
deg Phi_n = phi(n), reduced modulo Phi_n, so each field element has exactly
one representation at a given conductor.  Scalars of different conductors
compare and combine by promotion into Q(zeta_lcm).

Off conductor 1 arithmetic runs on int residues: a product writes each
factor as D*x with int coefficients, D the lcm of their denominators,
reduces the int convolution mod Phi_n, and builds its Fractions once, as
r / (Da*Db); a rational factor only scales the other's coefficients,
which gives the convolution's result.  x^-1 is the product of the other
Galois conjugates of x divided by its norm, an integer (`Scalar.inverse`).

One packed-int ring (`packing`).  The exact kernels lower Scalars once and
decide identities on plain ints.  n is the lcm of the conductors and D the
lcm of the coefficient denominators.  On n = 1 an entry x is the int D*x
and two sides are equal iff their ints are.  Above it x, with coefficients
c_i at its own conductor m, is the int sum (D*c_i) B^(i*n/m), B = 2^k:
Kronecker substitution (D. Harvey, J. Symbolic Comput. 44, 2009).  x -> B
is a ring map Z[x]/Phi_n -> Z/M, M = Phi_n(B), so sums and products keep
their kernels' int bodies and two sides are equal iff their difference is
0 mod M, once k is large enough:

  Let U be the difference of the two sides as a polynomial in x, each
  lowered value read before reduction mod Phi_n, and R = U mod Phi_n, the
  residue the identity claims is 0.  With h the largest of D and every
  |D*c_i|, each factor has coefficient sum at most phi(n)*h, so |U|_1 is at
  most the sum over both sides of terms * (phi(n)*h)^factors.  As
  x^j = x^(j mod n) mod Phi_n, every coefficient of R is at most rho*|U|_1,
  rho a bound on the coefficients of x^j mod Phi_n for j < n: for
  phi(n) <= j < n the quotient of x^j by the palindromic Phi_n, read
  backwards, is a truncation of the power series 1/Phi_n =
  -Psi_n (1 + x^n + ...), Psi_n = (x^n - 1)/Phi_n = prod_{d|n, d<n} Phi_d,
  so rho = |Phi_n|_inf prod |Phi_d|_1 serves.
  Take 2^k above twice that coefficient bound C and above 2 phi(n).  The
  ints of the sides differ by U(B) = R(B) mod M, and |R(B)| <=
  C (B^phi - 1)/(B - 1) < B^phi/2 <= (B - 1)^phi <= Phi_n(B) = M, by
  Bernoulli's inequality and since every root of Phi_n lies at distance at
  least B - 1 from B.  So M | R(B) forces R(B) = 0, and then R = 0: its
  coefficients are below B/2 in size, and such digits in base B are
  unique.

So a lowered value stands for 0 iff it is 0 mod M, or 0 when M = 0
(`vanishes`), and two lowered sides are compared here alone
(`same_sides`).  The same bound reads one side back (`high`): its int v
is U(B) for its own unreduced polynomial U, whose |U|_1 is bounded as
above, so every coefficient of U is at most |U|_1 < B/2 in size and the
balanced base-B digits of v are those coefficients.  U mod Phi_n, divided
by the side's scale, is the Scalar the side stands for, so a failing side
is rendered from the ints that decided it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm, prod

from .errors import DivisionByZero

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree.  Monic with integer entries.

    With m the product of the primes dividing n, Phi_n(x) = Phi_m(x^(n/m)).
    A squarefree m = r*p with p its largest prime gives Phi_m(x) =
    Phi_r(x^p) / Phi_r(x), divided exactly in ints; Phi_1 = x - 1."""
    if n < 1:
        raise ValueError(f"conductor must be a positive integer, got {n}")
    if n == 1:
        return (-1, 1)
    primes = _primes(n)
    m = prod(primes)
    if m != n:
        return tuple(_at_power(cyclotomic_poly(m), n // m))
    den = cyclotomic_poly(n // primes[-1])
    num = _at_power(den, primes[-1])
    k = len(den) - 1
    # synthetic division by the monic den: quotient left in num[k:]
    for i in range(len(num) - 1, k - 1, -1):
        for j in range(k):
            num[i - k + j] -= num[i] * den[j]
    assert not any(num[:k]), "inexact polynomial division"
    return tuple(num[k:])


def _at_power(c, s: int) -> list:
    """The coefficients of c(x^s)."""
    out = [0] * ((len(c) - 1) * s + 1)
    out[::s] = c
    return out


def _primes(n: int) -> list[int]:
    """The primes dividing n, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, which decides every
    m below 3.3 * 10^24 (J. Sorenson, J. Webster, Math. Comp. 86, 2017)."""
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def split_prime(n: int) -> tuple[int, int]:
    """(p, r): p the least prime above 2^31 with p = 1 mod n, so Phi_n
    splits completely mod p, and r = a^((p-1)/n) mod p for the least a >= 2
    that gives r multiplicative order exactly n.  Such an r is a root of
    Phi_n mod p: as p does not divide n, x^n - 1 = prod_{d|n} Phi_d(x) has
    distinct roots mod p, and the roots of Phi_d are the elements of order
    d.  So x -> r is a ring map Z[x]/Phi_n -> F_p."""
    p = -(-(1 << 31) // n) * n + 1
    while not _is_prime(p):
        p += n
    qs = _primes(n)
    for a in count(2):
        r = pow(a, (p - 1) // n, p)
        if all(pow(r, n // q, p) != 1 for q in qs):
            return p, r


def phi_degree(n: int) -> int:
    """Euler phi(n), the degree of Phi_n, by Euler's product over the
    primes dividing n; it never builds Phi_n."""
    if n < 1:
        raise ValueError(f"conductor must be a positive integer, got {n}")
    out = n
    for p in _primes(n):
        out -= out // p
    return out


def _reduce(coeffs: list[int], n: int) -> tuple[int, ...]:
    """Remainder of an int polynomial modulo Phi_n, padded to length phi(n);
    Phi_n is monic and integral, so the remainder stays in ints."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    cs = list(coeffs)
    for k in range(len(cs) - 1, deg - 1, -1):
        if c := cs.pop():
            # subtract c * x^(k-deg) * Phi_n below its leading term
            for i in range(deg):
                cs[k - deg + i] -= c * phi[i]
    return tuple(cs) + (0,) * (deg - len(cs))


def _ints(coeffs: tuple) -> tuple[int, list[int]]:
    """(D, the ints D*c): D is the lcm of the denominators of the Fractions c."""
    d = lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator for c in coeffs] if d == 1 else [c.numerator * (d // c.denominator) for c in coeffs]


def _fractions(cs, d: int) -> tuple:
    """The Fractions c / d of ints c, in lowest terms."""
    if d == 1:
        return tuple(Fraction(c) if c else _ZERO for c in cs)
    return tuple(Fraction(c, d) if c else _ZERO for c in cs)


def _mul_int(a: tuple, b: tuple, n: int) -> tuple:
    """Residue product mod Phi_n on int coefficient tuples; Phi_n is monic and integral."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    return _reduce(conv, n)


@lru_cache(maxsize=None)
def _reduction_height(n: int) -> int:
    """A bound on every coefficient of x^j mod Phi_n, for every j >= 0 (see
    `packing`)."""
    psi = prod(sum(map(abs, cyclotomic_poly(d))) for d in range(1, n) if n % d == 0)
    return psi * max(map(abs, cyclotomic_poly(n)))


def packing(values, sides) -> tuple:
    """(D, M, low, high): the one ring of plain ints in which the exact
    kernels decide identities between sums of products of these Scalars,
    as the module docstring states and proves.  sides lists (terms,
    factors) for each side the ring must decide: a cell of it sums at most
    `terms` products of `factors` factors each, counting the lowered values
    and each D that scales the side to meet the other.  high(v, scale) is
    the Scalar, at the ring's conductor, that a side v of degree l stands
    for, scale being D^l."""
    n = lcm(*{x.conductor for x in values})
    if n == 1:
        d = lcm(*{x.coeffs[0].denominator for x in values})

        def low(x):
            f = x.coeffs[0]
            return f.numerator * (d // f.denominator)

        return d, 0, low, Scalar.rational
    d = lcm(*{q.denominator for x in values for q in x.coeffs})
    h = max([d] + [abs(q.numerator) * (d // q.denominator) for x in values for q in x.coeffs])
    phi = phi_degree(n)
    bound = _reduction_height(n) * sum(terms * (phi * h) ** factors for terms, factors in sides)
    k = max(2 * bound, 2 * phi).bit_length()

    def low(x):
        if x.conductor == 1:
            f = x.coeffs[0]
            return f.numerator * (d // f.denominator)
        step = k * (n // x.conductor)
        return sum((q.numerator * (d // q.denominator)) << (step * i) for i, q in enumerate(x.coeffs) if q)

    def high(v, scale):
        digits, half = [], 1 << (k - 1)
        while v:  # the balanced base-B digits of v, each in [-B/2, B/2)
            digits.append((v + half) % (2 * half) - half)
            v = (v - digits[-1]) >> k
        return _make(n, _fractions(_reduce(digits, n), scale))

    return d, sum(c << (k * i) for i, c in enumerate(cyclotomic_poly(n))), low, high


def vanishes(x, M: int) -> bool:
    """The lowered value x stands for 0 (see the module docstring)."""
    return not x % M if M else not x


def is_one(x: Scalar) -> bool:
    """x == 1, read off the representation without coercing 1: the
    coefficients are (1, 0, ..., 0) at any conductor, as each residue mod
    Phi_n has one representation."""
    return x.coeffs[0] == 1 and not any(x.coeffs[1:])


def same_sides(a, b, M: int, f: int = 1) -> bool:
    """f*a and b stand for the same vector: two sides of lowered values over
    the same cells, lists, or dicts that may keep cells that cancelled."""
    if f == 1 and a == b:
        return True
    if type(a) is list:
        if not M:
            return f != 1 and [f * x for x in a] == b
        return all((f * x - y) % M == 0 for x, y in zip(a, b))
    if M:
        return all((f * a.get(o, 0) - b.get(o, 0)) % M == 0 for o in a.keys() | b.keys())
    return {o: f * v for o, v in a.items() if v} == {o: v for o, v in b.items() if v}


class Scalar:
    """An element of Q(zeta_n), exact.

    Do not mutate.  Construct through the classmethods or by arithmetic;
    int and Fraction operands are coerced on the fly.

    Invariant: `coeffs` is a tuple of Fraction of length phi(conductor),
    reduced modulo Phi_n.  The public constructor establishes it by coercing
    and checking its input; arithmetic results already satisfy it, so they
    are built by `_make`, which fills the slots without either step.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi_degree(conductor):
            raise ValueError(
                f"conductor {conductor} needs {phi_degree(conductor)} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def rational(cls, p, q=1) -> "Scalar":
        return _rat(Fraction(p, q))

    @classmethod
    def zeta(cls, n: int) -> "Scalar":
        """A primitive n-th root of unity, as the residue of x mod Phi_n."""
        return _make(n, _fractions(_reduce([0, 1], n), 1))

    @classmethod
    def coerce(cls, x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return _rat(Fraction(x))
        raise TypeError(f"cannot interpret {x!r} as a Scalar")

    # -- structure -------------------------------------------------------

    def __bool__(self) -> bool:
        """True exactly for nonzero elements, as for int and Fraction."""
        if self.conductor == 1:
            return bool(self.coeffs[0])
        return any(self.coeffs)

    def is_zero(self) -> bool:
        """not self, kept as public API; the package tests truthiness."""
        return not self

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; only for residues with zero zeta part."""
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def promote(self, n: int) -> "Scalar":
        """The same value viewed in Q(zeta_n); requires conductor | n."""
        m = self.conductor
        if m == n:
            return self
        if n % m:
            raise ValueError(f"cannot promote conductor {m} to {n}, which it does not divide")
        s, deg = n // m, len(cyclotomic_poly(n)) - 1
        if (len(self.coeffs) - 1) * s < deg:  # each x^(k*s) is reduced already
            return _make(n, tuple(_ZERO if k % s else self.coeffs[k // s] for k in range(deg)))
        d, cs = _ints(self.coeffs)
        return _make(n, _fractions(_reduce(_at_power(cs, s), n), d))

    # -- arithmetic ------------------------------------------------------

    def _pair(self, other):
        if type(other) is Scalar and other.conductor == self.conductor:
            return self, other, self.conductor
        other = Scalar.coerce(other)
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.promote(n), other.promote(n), n

    @staticmethod
    def _coercible(other) -> bool:
        return isinstance(other, (Scalar, int, Fraction))

    def __add__(self, other):
        if type(other) is Scalar and self.conductor == 1 == other.conductor:
            return _rat(self.coeffs[0] + other.coeffs[0])
        if type(other) is int and not other:
            return self  # the int 0 a sum or an accumulation store starts from
        if not Scalar._coercible(other):
            return NotImplemented
        a, b, n = self._pair(other)
        return _make(n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if type(other) is Scalar and self.conductor == other.conductor:
            if self.conductor == 1:
                return _rat(self.coeffs[0] - other.coeffs[0])
            return _make(self.conductor, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))
        if not Scalar._coercible(other):
            return NotImplemented
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other):
        if not Scalar._coercible(other):
            return NotImplemented
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is Scalar and self.conductor == 1 == other.conductor:
            return _rat(self.coeffs[0] * other.coeffs[0])
        if not Scalar._coercible(other):
            return NotImplemented
        b = Scalar.coerce(other)
        if 1 in (self.conductor, b.conductor):
            f, x = (b.coeffs[0], self) if b.conductor == 1 else (self.coeffs[0], b)
            return _make(x.conductor, tuple(f * c if c else c for c in x.coeffs))
        a, b, n = self._pair(b)
        (da, ia), (db, ib) = _ints(a.coeffs), _ints(b.coeffs)
        return _make(n, _fractions(_mul_int(ia, ib, n), da * db))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """x^-1 = D*P/N: a = D*x is integral at D the lcm of the
        denominators, P is the product of the Galois conjugates sigma_k(a),
        zeta -> zeta^k, over the units k != 1 mod n, and N = a*P is the
        norm of a, a nonzero integer.  All on int residues."""
        if not self:
            raise DivisionByZero("inverse of zero")
        n = self.conductor
        if n == 1:
            return _rat(1 / self.coeffs[0])
        d, a = _ints(self.coeffs)
        p = (1,) + (0,) * (len(a) - 1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                conj = [0] * n
                for i, c in enumerate(a):
                    conj[i * k % n] = c
                p = _mul_int(p, _reduce(conj, n), n)
        norm = _mul_int(a, p, n)
        assert norm[0] and not any(norm[1:]), "residue not invertible"
        return _make(n, _fractions([d * c for c in p], norm[0]))

    def __truediv__(self, other):
        if not Scalar._coercible(other):
            return NotImplemented
        return self * Scalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        if not Scalar._coercible(other):
            return NotImplemented
        return Scalar.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        a, b, _ = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-conductor equality makes a consistent hash useless

    # -- display ---------------------------------------------------------

    def __str__(self):
        if self.conductor == 1:
            f = self.coeffs[0]
            return f"{f.numerator}/{f.denominator}"
        body = ",".join(f"{c.numerator}/{c.denominator}" for c in self.coeffs)
        return f"z{self.conductor}[{body}]"

    def __repr__(self):
        return f"Scalar({self})"


_new = object.__new__
_set_conductor = Scalar.conductor.__set__
_set_coeffs = Scalar.coeffs.__set__


def _make(n: int, coeffs: tuple) -> Scalar:
    """A Scalar from coefficients that already meet the class invariant."""
    s = _new(Scalar)
    _set_conductor(s, n)
    _set_coeffs(s, coeffs)
    return s


def _rat(f: Fraction) -> Scalar:
    """The conductor 1 Scalar of a Fraction."""
    s = _new(Scalar)
    _set_conductor(s, 1)
    _set_coeffs(s, (f,))
    return s


ZERO = _rat(_ZERO)
ONE = _rat(_ONE)


def sc(x) -> Scalar:
    """Shorthand coercion used throughout the package."""
    return Scalar.coerce(x)
