"""Argument checks of the group table constructors and of the helpers
built on them, which hold under `python -O` too."""

import os
import pathlib
import subprocess
import sys

import pytest

from hopfrec.examples import _perm_modules
from hopfrec.errors import ShapeError
from hopfrec.groups import GroupTable, cyclic_group, s4_to_s3_quotient, symmetric_group

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("n", [0, -3])
def test_cyclic_group_of_nonpositive_order_is_a_value_error(n):
    with pytest.raises(ValueError, match="order must be positive"):
        cyclic_group(n)


@pytest.mark.parametrize("n", [0, 7])
def test_symmetric_group_out_of_range_is_a_value_error(n):
    with pytest.raises(ValueError, match="between 1 and 6"):
        symmetric_group(n)


@pytest.mark.parametrize("p", [(0, 1, 2, 3, 4), (0, 1, 2)])
def test_s4_quotient_of_a_non_s4_tuple_is_a_value_error(p):
    with pytest.raises(ValueError, match="not a permutation of 4 points"):
        s4_to_s3_quotient(p)


def test_perm_modules_of_a_table_without_permutations_is_a_value_error():
    with pytest.raises(ValueError, match="carries no permutations"):
        _perm_modules(cyclic_group(3))


def first_non_associative(t):
    """The triple loop the row-by-row check replaced, kept as the reference."""
    n = len(t)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[t[i][j]][k] != t[i][t[j][k]]:
                    return (i, j, k)
    return None


@pytest.mark.parametrize("g", [symmetric_group(3), cyclic_group(4), symmetric_group(4)], ids=["S3", "Z4", "S4"])
def test_a_planted_fault_names_the_triple_loops_first_triple(g):
    n, checked = g.order, 0
    for i in range(1, n):
        for j in range(1, n, max(1, n // 6)):
            t = [list(row) for row in g.table]
            t[i][j] = (t[i][j] + i + j) % (n - 1) + 1 if n > 2 else t[i][j]
            want = first_non_associative(t)
            if want is None:
                continue
            with pytest.raises(ShapeError) as err:
                GroupTable(n, t)
            assert str(err.value) == f"table is not associative at {want}"
            checked += 1
    assert checked >= n - 1
    GroupTable(n, g.table)  # the unplanted table passes


# each check's call, and the exception name it must raise with asserts off
OPTIMIZED = """
from hopfrec.examples import _perm_modules
from hopfrec.groups import cyclic_group, s4_to_s3_quotient, symmetric_group
from hopfrec.scalars import Scalar

assert not __debug__
calls = [
    lambda: cyclic_group(0),
    lambda: symmetric_group(7),
    lambda: Scalar.zeta(3).promote(5),
    lambda: _perm_modules(cyclic_group(3)),
    lambda: s4_to_s3_quotient((0, 1, 2, 3, 4)),
    lambda: s4_to_s3_quotient((0, 1, 2)),
]
for call in calls:
    try:
        call()
        print("returned")
    except Exception as e:
        print(type(e).__name__)
"""


def test_argument_checks_raise_value_error_under_python_O():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ValueError"] * 6
