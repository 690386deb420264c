"""Tests for the tableau-counting oracle and its agreement with hives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrhive.hive import count_hives
from lrhive.partitions import Partition, partitions_of
from lrhive.product import lr_expansion
from lrhive.tableaux import conjugate, lr_conjugation_check, lr_tableaux_count


def test_conjugate():
    assert conjugate(Partition((4, 2, 1))) == Partition((3, 2, 1, 1))
    assert conjugate(Partition((0, 0))) == Partition((0,))
    assert conjugate(conjugate(Partition((5, 3, 3, 1)))).parts[:4] == (5, 3, 3, 1)


def test_known_counts():
    lam = Partition((2, 1, 0))
    assert lr_tableaux_count(lam, lam, Partition((3, 2, 1))) == 2
    assert lr_tableaux_count(lam, lam, Partition((2, 2, 2))) == 1
    assert lr_tableaux_count(lam, lam, Partition((4, 2, 0))) == 1
    # lam not contained in nu
    assert lr_tableaux_count(Partition((3, 0)), Partition((1, 0)), Partition((2, 2))) == 0
    # sizes that do not balance
    assert lr_tableaux_count(Partition((1, 0)), Partition((1, 0)), Partition((1, 0))) == 0
    # empty mu
    assert lr_tableaux_count(lam, Partition((0, 0, 0)), lam) == 1


def test_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        lr_tableaux_count(Partition((1, 0)), Partition((1, 0, 0)), Partition((2, 0, 0)))


def test_pieri_rule():
    """Multiplying by a one-row shape always gives multiplicity at most 1,
    with support counted by distinct horizontal strips."""
    lam = Partition((3, 1, 0, 0))
    mu = Partition((2, 0, 0, 0))
    hits = 0
    for shape in partitions_of(6, 4, 5):
        nu = Partition(shape + (0,) * (4 - len(shape)))
        c = lr_tableaux_count(lam, mu, nu)
        assert c in (0, 1)
        hits += c
    assert hits == 5  # the five horizontal 2-strips on (3,1) within 4 rows


def test_agrees_with_product_past_the_acceptance_range():
    """Criterion 2 checks the oracle up to rank 5.  Past it: every candidate
    nu at n = 6 with |lam| + |mu| <= 8 and at n = 7 with |lam| + |mu| <= 7,
    675 pairs, against ``lr_expansion``."""
    pairs = 0
    for n, most in ((6, 8), (7, 7)):
        for a in range(most + 1):
            for b in range(most + 1 - a):
                for ls in partitions_of(a, n):
                    for ms in partitions_of(b, n):
                        lam, mu = (Partition(s + (0,) * (n - len(s))) for s in (ls, ms))
                        expansion = lr_expansion(lam, mu)
                        for shape in partitions_of(a + b, n, lam[0] + mu[0]):
                            nu = Partition(shape + (0,) * (n - len(shape)))
                            assert lr_tableaux_count(lam, mu, nu) == expansion.get(nu, 0), (lam, mu, nu)
                        pairs += 1
    assert pairs == 675


def partition_at(n, max_part):
    return st.lists(st.integers(0, max_part), min_size=n, max_size=n).map(
        lambda xs: Partition(tuple(sorted(xs, reverse=True)))
    )


@given(partition_at(4, 3), partition_at(4, 3))
@settings(max_examples=30, deadline=None)
def test_agrees_with_hives(lam, mu):
    for shape in partitions_of(lam.size + mu.size, 4, lam[0] + mu[0]):
        nu = Partition(shape + (0,) * (4 - len(shape)))
        assert lr_tableaux_count(lam, mu, nu) == count_hives(lam, mu, nu)


@given(partition_at(3, 4), partition_at(3, 4))
@settings(max_examples=20, deadline=None)
def test_conjugation_invariance(lam, mu):
    for shape in partitions_of(lam.size + mu.size, 3, lam[0] + mu[0]):
        nu = Partition(shape + (0,) * (3 - len(shape)))
        assert lr_conjugation_check(lam, mu, nu)
