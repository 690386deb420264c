"""Tests for the rank-4 facet systems and Hilbert generators."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrhive.hive import count_hives
from lrhive.horn import (
    _NR2_FACETS,
    _NR_FACETS,
    NR2_SYSTEM,
    NR_SYSTEM,
    facet_system,
    hilbert_generators,
    horn4_nr2_member,
    horn4_nr_member,
)
from lrhive.partitions import Partition, partitions_of


def test_facet_counts():
    assert len(NR2_SYSTEM.facets) == 11
    assert len(NR_SYSTEM.facets) == 32
    assert facet_system("nr2") is NR2_SYSTEM
    with pytest.raises(ValueError):
        facet_system("bogus")


def test_facet_names_spell_their_coefficients():
    """Each facet's name, e.g. "nu1+nu3-lam1-lam2-mu2>=0", lists exactly the
    +-1 terms of its coefficient tuple over (l1..l4, m1..m4, n1..n4)."""
    offset = {"lam": 0, "mu": 4, "nu": 8}
    for name, coeffs in _NR2_FACETS + _NR_FACETS:
        lhs, sep, rhs = name.partition(">=")
        assert (sep, rhs) == (">=", "0"), name
        terms = re.findall(r"([+-]?)(lam|mu|nu)([1-4])", lhs)
        assert "".join("".join(t) for t in terms) == lhs, name
        spelled = [0] * 12
        for sign, var, index in terms:
            spelled[offset[var] + int(index) - 1] += -1 if sign == "-" else 1
        assert tuple(spelled) == coeffs, name


def test_balance_is_reported_as_minus_one():
    lam = mu = Partition((1, 1, 1, 0))
    bad = NR2_SYSTEM.violated(lam, mu, Partition((2, 2, 1, 0)))
    assert -1 in bad


def test_membership_known_triples():
    lam = mu = Partition((1, 1, 1, 0))
    assert horn4_nr2_member(lam, mu, Partition((2, 2, 1, 1)))
    assert not horn4_nr2_member(lam, mu, Partition((3, 3, 0, 0)))
    assert horn4_nr_member(Partition((2, 1, 1, 0)), Partition((1, 1, 0, 0)),
                           Partition((2, 2, 1, 1)))


_OUTSIDE_DOMAIN = [
    (horn4_nr2_member, "nr2", ((2, 1, 0, 0), (1, 1, 1, 0), (2, 2, 1, 0))),  # lam not near-rectangular
    (horn4_nr_member, "nr", ((1, 1, 1, 1), (1, 0, 0, 0), (2, 1, 1, 1))),  # lam last part nonzero
    (horn4_nr2_member, "nr2", ((1, 0, 0), (1, 0, 0), (2, 0, 0))),  # rank 3
    (horn4_nr_member, "nr", ((1, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 0, 0, 0))),  # rank 5
    (horn4_nr_member, "nr", ((1, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0, 0))),  # nu of rank 5
    (horn4_nr_member, "nr", ((1, 0, 0, 0), (1, 1, 1, 1), (2, 1, 1, 1))),  # mu last part nonzero
    (horn4_nr2_member, "nr2", ((1, 0, 0, 0), (2, 1, 0, 0), (3, 1, 0, 0))),  # mu not near-rectangular
]


def test_preconditions():
    """The facet systems check their own domain, so the membership tests and
    ``violated`` reject the same triples."""
    for member, name, triple in _OUTSIDE_DOMAIN:
        triple = tuple(map(Partition, triple))
        with pytest.raises(ValueError):
            member(*triple)
        with pytest.raises(ValueError):
            facet_system(name).violated(*triple)


def test_nr_takes_any_bar_reduced_mu():
    lam, mu = Partition((1, 0, 0, 0)), Partition((2, 1, 0, 0))
    assert NR_SYSTEM.violated(lam, mu, Partition((3, 1, 0, 0))) == []
    assert NR_SYSTEM.violated(lam, mu, Partition((2, 2, 0, 0))) == []
    assert NR_SYSTEM.violated(lam, mu, Partition((4, 0, 0, 0))) != []


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_nr2_matches_hives(a, b, c, d):
    lam = Partition((a + b, b, b, 0))
    mu = Partition((c + d, d, d, 0))
    for shape in partitions_of(lam.size + mu.size, 4, lam[0] + mu[0]):
        nu = Partition(shape + (0,) * (4 - len(shape)))
        assert horn4_nr2_member(lam, mu, nu) == (count_hives(lam, mu, nu) > 0)


@given(st.integers(0, 3), st.integers(0, 3),
       st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
@settings(max_examples=40, deadline=None)
def test_nr_matches_hives(a, b, mu_parts):
    lam = Partition((a + b, b, b, 0))
    mu = Partition(tuple(sorted(mu_parts, reverse=True)) + (0,))
    for shape in partitions_of(lam.size + mu.size, 4, lam[0] + mu[0]):
        nu = Partition(shape + (0,) * (4 - len(shape)))
        assert horn4_nr_member(lam, mu, nu) == (count_hives(lam, mu, nu) > 0)


def test_hilbert_generators():
    gens2, gens = hilbert_generators("nr2"), hilbert_generators("nr")
    assert len(gens2) == 8 and len(gens) == 12
    for g in gens2:
        assert count_hives(g.lam, g.mu, g.nu) == 1
        assert horn4_nr2_member(g.lam, g.mu, g.nu)
    for g in gens:
        assert count_hives(g.lam, g.mu, g.nu) == 1
        assert horn4_nr_member(g.lam, g.mu, g.nu)
    with pytest.raises(ValueError):
        hilbert_generators("bogus")
