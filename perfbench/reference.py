"""Independent reference verdicts for the benchmark's gates.

Plain `fractions.Fraction` evaluation of the Hopf axioms on rational
structure tensors, and of the 3-cocycle identity of a pointed category on
Z/n.  Nothing here imports hopfrec: the benchmark decides which verdict a
mutant must get from this module, never from the checker under test.

Tensor conventions match the hopfrec payloads:
  e_i e_j   = sum_k mult[i][j][k] e_k
  Delta e_i = sum_{j,k} comult[i][j][k] e_j (x) e_k
  S e_i     = sum_j anti[j][i] e_j
"""

from __future__ import annotations

from fractions import Fraction


def _add(acc: dict, key, val: Fraction) -> None:
    cur = acc.get(key, 0) + val
    if cur:
        acc[key] = cur
    else:
        acc.pop(key, None)


class _Hopf:
    def __init__(self, mult, unit, comult, counit, anti):
        n = len(unit)
        self.n = n
        self.m = {
            (i, j): [(k, c) for k, c in enumerate(mult[i][j]) if c]
            for i in range(n)
            for j in range(n)
        }
        self.d = [
            [(j, k, c) for j in range(n) for k, c in enumerate(comult[i][j]) if c]
            for i in range(n)
        ]
        self.s = [[(j, anti[j][i]) for j in range(n) if anti[j][i]] for i in range(n)]
        self.unit = {i: c for i, c in enumerate(unit) if c}
        self.counit = list(counit)

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for i, a in x.items():
            for j, b in y.items():
                for k, c in self.m[(i, j)]:
                    _add(out, k, a * b * c)
        return out

    def delta(self, x: dict) -> dict:
        out: dict = {}
        for i, a in x.items():
            for j, k, c in self.d[i]:
                _add(out, (j, k), a * c)
        return out

    def eps(self, x: dict) -> Fraction:
        return sum((a * self.counit[i] for i, a in x.items()), Fraction(0))

    def anti(self, x: dict) -> dict:
        out: dict = {}
        for i, a in x.items():
            for j, c in self.s[i]:
                _add(out, j, a * c)
        return out


def hopf_violation(mult, unit, comult, counit, anti) -> str | None:
    """The first Hopf axiom the tensors violate, cheapest checks first;
    None when they present a Hopf algebra."""
    h = _Hopf(mult, unit, comult, counit, anti)
    n = h.n
    e = [{i: Fraction(1)} for i in range(n)]
    one = h.unit

    def unit_laws():
        return all(h.mul(one, x) == x == h.mul(x, one) for x in e)

    def counit_laws():
        for i in range(n):
            left: dict = {}
            right: dict = {}
            for j, k, c in h.d[i]:
                _add(left, k, h.counit[j] * c)
                _add(right, j, h.counit[k] * c)
            if left != e[i] or right != e[i]:
                return False
        return True

    def unit_coalgebra_map():
        unit_tensor: dict = {}
        for p, a in one.items():
            for q, b in one.items():
                _add(unit_tensor, (p, q), a * b)
        return h.delta(one) == unit_tensor and h.eps(one) == 1

    def snakes():
        for i in range(n):
            want = {p: u * h.counit[i] for p, u in one.items() if u * h.counit[i]}
            left: dict = {}
            right: dict = {}
            for j, k, c in h.d[i]:
                for p, x in h.mul(h.anti({j: c}), e[k]).items():
                    _add(left, p, x)
                for p, x in h.mul(e[j], h.anti({k: c})).items():
                    _add(right, p, x)
            if left != want or right != want:
                return False
        return True

    def associativity():
        return all(
            h.mul(h.mul(x, y), z) == h.mul(x, h.mul(y, z)) for x in e for y in e for z in e
        )

    def counit_multiplicative():
        return all(
            h.eps(h.mul(e[i], e[j])) == h.counit[i] * h.counit[j]
            for i in range(n)
            for j in range(n)
        )

    def coassociativity():
        for i in range(n):
            left: dict = {}
            right: dict = {}
            for j, k, c in h.d[i]:
                for (p, q), x in h.delta({j: c}).items():
                    _add(left, (p, q, k), x)
                for (p, q), x in h.delta({k: c}).items():
                    _add(right, (j, p, q), x)
            if left != right:
                return False
        return True

    def comult_multiplicative():
        # Delta(e_i e_j) = Delta(e_i) Delta(e_j), multiplying leg by leg
        for i in range(n):
            for j in range(n):
                prod: dict = {}
                for a1, b1, c1 in h.d[i]:
                    for a2, b2, c2 in h.d[j]:
                        for p, x in h.m[(a1, a2)]:
                            for q, y in h.m[(b1, b2)]:
                                _add(prod, (p, q), c1 * c2 * x * y)
                if h.delta(h.mul(e[i], e[j])) != prod:
                    return False
        return True

    for check in (
        unit_laws,
        counit_laws,
        unit_coalgebra_map,
        snakes,
        associativity,
        counit_multiplicative,
        coassociativity,
        comult_multiplicative,
    ):
        if not check():
            return check.__name__.replace("_", "-")
    return None


class RootOfUnity:
    """zeta_n^e, multiplied by adding exponents mod n."""

    __slots__ = ("n", "e")

    def __init__(self, n: int, e: int):
        self.n, self.e = n, e % n

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.n, self.e + other.e)

    def __eq__(self, other) -> bool:
        return (self.n, self.e) == (other.n, other.e)


def cocycle_violations(order: int, omega: dict, one) -> list[tuple]:
    """Tuples (a, b, c, d) of Z/order where omega fails
    omega(ab,c,d) omega(a,b,cd) = omega(a,b,c) omega(a,bc,d) omega(b,c,d),
    plus triples (a, b, c) with a unit slot where omega is not `one`.
    omega maps triples to values that multiply and compare exactly."""
    bad = []
    for a in range(order):
        for b in range(order):
            for c in range(order):
                if 0 in (a, b, c) and omega[(a, b, c)] != one:
                    bad.append((a, b, c))
                for d in range(order):
                    lhs = omega[((a + b) % order, c, d)] * omega[(a, b, (c + d) % order)]
                    rhs = (
                        omega[(a, b, c)]
                        * omega[(a, (b + c) % order, d)]
                        * omega[(b, c, d)]
                    )
                    if lhs != rhs:
                        bad.append((a, b, c, d))
    return bad
