import pytest
from hypothesis import given, strategies as st

from ferrers_lab import Partition, conjugate, majorizes


parts_strategy = st.lists(
    st.integers(min_value=1, max_value=12), min_size=0, max_size=12
).map(lambda xs: Partition(sorted(xs, reverse=True)))


def test_conjugate_worked_example():
    assert conjugate(Partition((5, 5, 4, 2, 2, 1))) == Partition((6, 5, 3, 3, 2))


def test_conjugate_fixed_points():
    assert conjugate(Partition((1,))) == Partition((1,))
    assert conjugate(Partition((4, 3, 2, 1))) == Partition((4, 3, 2, 1))
    assert conjugate(Partition(())) == Partition(())


def test_conjugate_involution_exhaustive_small():
    # all partitions fitting in an 8x8 box
    for parts in partitions_of_box(8, 8):
        p = Partition(parts)
        assert conjugate(conjugate(p)) == p


def partitions_of_box(max_part, max_len):
    def gen(limit, length):
        yield ()
        if length == 0:
            return
        for first in range(1, limit + 1):
            for rest in gen(first, length - 1):
                yield (first,) + rest

    return gen(max_part, max_len)


@given(parts_strategy)
def test_conjugate_involution_and_size(p):
    q = conjugate(p)
    assert sum(q) == sum(p)
    assert conjugate(q) == p


def test_majorizes_basics():
    assert majorizes((2, 2, 2), (3, 2, 1))
    assert not majorizes((3, 2, 1), (2, 2, 2))
    assert majorizes((1, 1), (1, 1))


def test_majorizes_zero_padding():
    assert majorizes((1, 1), (2,))
    assert not majorizes((2,), (1, 1, 1))  # sums differ
    assert not majorizes((2, 1), (1, 1, 1))


def test_majorizes_float_tolerance():
    assert majorizes([2.0, 1.9999999999], [2.0, 2.0])
    assert not majorizes([2.1, 1.9], [2.0, 2.0])


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_string_round_trip():
    p = Partition((5, 5, 4, 2, 2, 1))
    assert Partition.from_string(",".join(map(str, p))) == p
    assert Partition.from_string("") == Partition(())
    assert Partition.from_string("3,3,2,1").parts == (3, 3, 2, 1)


def test_value_semantics():
    assert Partition((2, 1)) == Partition([2, 1])
    assert hash(Partition((2, 1))) == hash(Partition((2, 1)))
    assert len({Partition((2, 1)), Partition((2, 1))}) == 1
