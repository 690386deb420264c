"""Tests for the partition primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrhive.partitions import (
    Partition,
    bar_reduce,
    dual_star,
    enumerate_nu_candidates,
    is_near_rectangular,
    padded,
    partitions_of,
)


def partition_tuples(n, max_part=8):
    """Strategy for weakly decreasing n-tuples."""
    return st.lists(st.integers(0, max_part), min_size=n, max_size=n).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((1, -1))
    with pytest.raises(ValueError):
        Partition(())
    p = Partition((3, 1, 0))
    assert p.n == 3 and p.size == 4 and p[1] == 1


def test_parts_must_be_ints():
    """Parts are not coerced: a float, string or bool part is an error."""
    for parts in [(2.7, 1), ("3", True), (1.9, 0), (2, 1.0), (True, 0)]:
        with pytest.raises(ValueError, match="must be integers"):
            Partition(parts)
    assert Partition([3, 1]).parts == (3, 1)


def test_parse():
    assert Partition.parse("5,3", 3) == Partition((5, 3, 0))
    assert Partition.parse("", 2) == Partition((0, 0))
    assert Partition.parse("2,1") == Partition((2, 1))
    with pytest.raises(ValueError):
        Partition.parse("1,2,3", 2)
    with pytest.raises(ValueError):
        Partition.parse("")


def test_dual_star_known():
    # (3,3,2,0,0) at rank 5 dualizes to (3,3,1,0,0)
    assert dual_star(Partition((3, 3, 2, 0, 0))) == Partition((3, 3, 1, 0, 0))
    assert dual_star(Partition((5, 3, 0))) == Partition((5, 2, 0))


@given(partition_tuples(4))
def test_dual_star_involution_on_reduced(parts):
    """dual_star is an involution on partitions with last part 0."""
    lam = bar_reduce(Partition(parts))
    assert dual_star(dual_star(lam)) == lam


@given(partition_tuples(5))
def test_bar_reduce_idempotent(parts):
    lam = Partition(parts)
    reduced = bar_reduce(lam)
    assert reduced[reduced.n - 1] == 0
    assert bar_reduce(reduced) == reduced
    assert reduced.size == lam.size - lam.n * lam[lam.n - 1]


def test_near_rectangular():
    assert is_near_rectangular(Partition((7, 2, 2, 2, 0)))
    assert is_near_rectangular(Partition((5, 3, 0)))  # rank 3: always
    assert not is_near_rectangular(Partition((3, 3, 2, 0, 0)))


def test_padded():
    assert padded((5,), 2, (0,), 4) == Partition((5, 2, 2, 0))
    assert padded((5,), 2, (0,), 2) == Partition((5, 0))  # no middle part
    assert padded((4, 3), 2, (1, 0), 6) == Partition((4, 3, 2, 2, 1, 0))
    for head, tail, n in [((5,), (0,), 1), ((4, 3), (1, 0), 3), ((1, 1, 1), (), 2)]:
        with pytest.raises(ValueError, match="exceed rank"):
            padded(head, 1, tail, n)
    with pytest.raises(ValueError, match="weakly decreasing"):
        padded((1,), 2, (0,), 3)


def test_partitions_of():
    got = list(partitions_of(4, 2))
    assert got == [(4,), (3, 1), (2, 2)]
    assert list(partitions_of(0, 3)) == [()]
    # partitions into at most 3 parts of 6: 7 of them
    assert len(list(partitions_of(6, 3))) == 7


@given(st.integers(0, 10), st.integers(1, 4))
@settings(max_examples=60)
def test_partitions_of_properties(total, max_parts):
    shapes = list(partitions_of(total, max_parts))
    assert len(set(shapes)) == len(shapes)
    for s in shapes:
        assert sum(s) == total and len(s) <= max_parts
        assert all(a >= b for a, b in zip(s, s[1:]))
    # lexicographically decreasing order
    assert shapes == sorted(shapes, reverse=True)


def test_enumerate_nu_candidates():
    lam, mu = Partition((1, 0)), Partition((1, 0))
    assert enumerate_nu_candidates(lam, mu) == [Partition((2, 0)), Partition((1, 1))]
    cands = enumerate_nu_candidates(Partition((5, 3, 0)), Partition((6, 3, 0)))
    assert all(nu.size == 17 and nu[0] <= 11 for nu in cands)
    assert len(set(cands)) == len(cands)
