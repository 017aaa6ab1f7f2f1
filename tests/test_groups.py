"""Argument checks of the group table constructors, which hold under
`python -O` too."""

import pytest

from hopfrec.groups import cyclic_group, symmetric_group


@pytest.mark.parametrize("n", [0, -3])
def test_cyclic_group_of_nonpositive_order_is_a_value_error(n):
    with pytest.raises(ValueError, match="order must be positive"):
        cyclic_group(n)


@pytest.mark.parametrize("n", [0, 7])
def test_symmetric_group_out_of_range_is_a_value_error(n):
    with pytest.raises(ValueError, match="between 1 and 6"):
        symmetric_group(n)
