"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  Symmetric groups
carry their elements as permutation tuples in sorted order, composed as
(p * q)(x) = p(q(x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter

from .errors import ShapeError


@dataclass(frozen=True)
class GroupTable:
    order: int
    table: tuple  # table[i][j] = index of g_i g_j
    name: str = "G"
    elements: tuple = ()  # optional payload, e.g. permutation tuples

    def __post_init__(self):
        n = self.order
        t = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", t)
        if len(t) != n or any(len(r) != n for r in t):
            raise ShapeError(f"multiplication table is not {n}x{n}")
        if any(not (0 <= x < n) for r in t for x in r):
            raise ShapeError("table entry out of range")
        for i in range(n):
            if t[0][i] != i or t[i][0] != i:
                raise ShapeError("element 0 is not an identity")
        # row by row: (g_i g_j) g_k over every k is row t[i][j] of t, and
        # g_i (g_j g_k) is row i read at the entries of row j; a group of
        # order 1 is associative once 0 is its identity
        reads = [itemgetter(*r) for r in t] if n > 1 else []
        for i, ti in enumerate(t):
            for j, read in enumerate(reads):
                if t[ti[j]] != read(ti):
                    k = next(k for k in range(n) if t[ti[j]][k] != ti[t[j][k]])
                    raise ShapeError(f"table is not associative at {(i, j, k)}")
        for i in range(n):
            if all(t[i][j] != 0 for j in range(n)):
                raise ShapeError(f"element {i} has no inverse")

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        for j in range(self.order):
            if self.table[i][j] == 0:
                return j
        raise AssertionError("unreachable: table validated")

    def conjugate(self, g: int, h: int) -> int:
        """g h g^{-1}."""
        return self.mul(self.mul(g, h), self.inv(g))


def cyclic_group(n: int) -> GroupTable:
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return GroupTable(n, table, name=f"Z{n}")


def symmetric_group(n: int) -> GroupTable:
    """S_n on {0..n-1}; elements sorted lexicographically so identity is 0."""
    if not 1 <= n <= 6:
        raise ValueError(f"symmetric group degree must be between 1 and 6, got {n}")
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in elems) for p in elems
    )
    return GroupTable(len(elems), table, name=f"S{n}", elements=tuple(elems))


def direct_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    """Product group on pairs, index (i, j) -> i*|G2| + j."""
    n1, n2 = g1.order, g2.order
    table = tuple(
        tuple(
            g1.mul(i1, j1) * n2 + g2.mul(i2, j2)
            for j1 in range(n1)
            for j2 in range(n2)
        )
        for i1 in range(n1)
        for i2 in range(n2)
    )
    return GroupTable(n1 * n2, table, name=f"{g1.name}x{g2.name}")


def perm_parity(p: tuple) -> int:
    """+1 or -1."""
    n = len(p)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def standard_rep_matrix(p: tuple) -> list:
    """Standard (n-1)-dim representation of S_n in the basis
    v_i = e_i - e_{i+1}, i = 0..n-2, as integer rows."""
    n = len(p)
    # image of v_i is e_{p(i)} - e_{p(i+1)}; expand in the v basis:
    # e_a - e_b = sum_{i=a}^{b-1} v_i for a < b, negated otherwise.
    rows = [[0] * (n - 1) for _ in range(n - 1)]
    for i in range(n - 1):
        a, b = p[i], p[i + 1]
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        for k in range(a, b):
            rows[k][i] = sign
    return rows


def s4_to_s3_quotient(p: tuple) -> tuple:
    """The surjection S4 -> S3 by the action on the three pair partitions
    {01|23, 02|13, 03|12} of {0,1,2,3}."""
    if len(p) != 4:
        raise ValueError(f"not a permutation of 4 points: {p}")
    partitions = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]

    def part_index(pair):
        key = tuple(sorted(pair))
        for idx, (x, y) in enumerate(partitions):
            if key in (x, y):
                return idx
        raise AssertionError("not a pair")

    image = []
    for x, _ in partitions:
        image.append(part_index((p[x[0]], p[x[1]])))
    return tuple(image)
