"""Tests for the product backend: lr_expansion against the per-nu engines,
its work pins, and the histograms read from it."""

import json
from pathlib import Path

import pytest

from lrhive import piecewise, product
from lrhive.hive import count_hives
from lrhive.partitions import Partition, enumerate_nu_candidates, partitions_of
from lrhive.piecewise import multiplicity_multiset
from lrhive.product import lr_expansion
from lrhive.tableaux import lr_tableaux_count

PAIRS = Path(__file__).resolve().parent.parent / "perfbench" / "pairs.json"


def pad(shape, n):
    return Partition(shape + (0,) * (n - len(shape)))


def pairs_up_to(max_n, max_total):
    """Every (lam, mu) of rank n <= max_n with |lam| + |mu| <= max_total."""
    for n in range(1, max_n + 1):
        for a in range(max_total + 1):
            for ls in partitions_of(a, n):
                for b in range(max_total + 1 - a):
                    for ms in partitions_of(b, n):
                        yield pad(ls, n), pad(ms, n)


def per_nu(lam, mu, coefficient):
    return {nu: c for nu in enumerate_nu_candidates(lam, mu) if (c := coefficient(lam, mu, nu))}


def test_matches_hive_counts_over_the_oracle_range():
    """Criterion 2's range: n <= 5, |lam| + |mu| <= 12, lam_n and mu_n free."""
    for lam, mu in pairs_up_to(5, 12):
        assert lr_expansion(lam, mu) == per_nu(lam, mu, count_hives), (lam, mu)


def test_matches_tableaux_oracle():
    for lam, mu in pairs_up_to(4, 8):
        assert lr_expansion(lam, mu) == per_nu(lam, mu, lr_tableaux_count), (lam, mu)


def test_edge_cases():
    lam = Partition((3, 1, 0))
    assert lr_expansion(lam, Partition((0, 0, 0))) == {lam: 1}
    assert lr_expansion(Partition((0,)), Partition((0,))) == {Partition((0,)): 1}
    assert lr_expansion(Partition((2,)), Partition((5,))) == {Partition((7,)): 1}
    # full columns on both sides, with no bar reduction: shift the rank-3 answer
    expected = {Partition(tuple(p + 3 for p in nu)): c
                for nu, c in lr_expansion(Partition((2, 1, 0)), Partition((2, 1, 0))).items()}
    assert lr_expansion(Partition((4, 3, 2)), Partition((3, 2, 1))) == expected
    assert expected[Partition((6, 5, 4))] == 2


def test_rank_mismatch_raises():
    with pytest.raises(ValueError, match="rank mismatch"):
        lr_expansion(Partition((1, 0)), Partition((1, 0, 0)))
    with pytest.raises(ValueError, match="rank mismatch"):
        multiplicity_multiset(Partition((1, 0)), Partition((1, 0, 0)))


def _product_nodes(monkeypatch, lam, mu):
    """Values placed by the real ``lr_expansion``: each placement reads the
    plan's ``next_above`` once."""
    class Counted(tuple):
        reads = 0

        def __getitem__(self, k):
            Counted.reads += 1
            return tuple.__getitem__(self, k)

    plan = product._fill_plan

    def counted_plan(shape):
        right, next_above = plan(shape)
        return right, Counted(next_above)

    monkeypatch.setattr(product, "_fill_plan", counted_plan)
    lr_expansion(lam, mu)
    return Counted.reads


def test_product_work_pinned_rank6(monkeypatch):
    """ROADMAP baseline 1: the hive search takes 31,197 nodes over every
    candidate nu; the product places 17,403 values for all 648 nu."""
    lam, mu = Partition((8, 5, 3, 1, 0, 0)), Partition((6, 4, 2, 1, 0, 0))
    assert _product_nodes(monkeypatch, lam, mu) == 17_403


def test_product_work_pinned_rank7_staircase(monkeypatch):
    """The rank-7 staircase pair (hive search: 200,892 nodes)."""
    lam, mu = Partition((6, 5, 4, 3, 2, 1, 0)), Partition((5, 4, 3, 2, 1, 0, 0))
    assert _product_nodes(monkeypatch, lam, mu) == 66_963


def test_default_histogram_matches_hive_on_benchmark_pairs():
    strata = json.loads(PAIRS.read_text())["strata"]
    for stratum in strata[::4]:
        lam, mu = (Partition(tuple(stratum[0][k])) for k in ("lambda", "mu"))
        assert multiplicity_multiset(lam, mu) == multiplicity_multiset(lam, mu, method="hive")


def test_rank3_default_runs_per_nu(monkeypatch):
    """At rank 3 the closed form per nu beats one leaf per LR tableau."""
    def refuse(lam, mu):
        raise AssertionError("rank 3 must not run the product")

    monkeypatch.setattr(piecewise, "lr_expansion", refuse)
    for lam, mu in pairs_up_to(3, 8):
        if lam.n == 3:
            assert multiplicity_multiset(lam, mu) == multiplicity_multiset(lam, mu, method="auto")
