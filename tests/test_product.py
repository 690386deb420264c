"""Tests for the product backends: lr_expansion and the rank-3
gl3_expansion against the per-nu engines, the product's work pins, and the
histograms read from them."""

import json
from collections import Counter
from pathlib import Path

import pytest

from lrhive import piecewise, product
from lrhive.coefficients import lr_coefficient
from lrhive.formulas import gl3_expansion
from lrhive.hive import count_hives
from lrhive.partitions import Partition, enumerate_nu_candidates, partitions_of
from lrhive.piecewise import MultiplicityMultiset, multiplicity_multiset
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


def rank3_up_to(max_size):
    """Every rank-3 partition of size at most max_size, last part free."""
    return [pad(shape, 3) for size in range(max_size + 1) for shape in partitions_of(size, 3)]


def per_nu(lam, mu, coefficient):
    return {nu: c for nu in enumerate_nu_candidates(lam, mu) if (c := coefficient(lam, mu, nu))}


def test_matches_hive_counts_over_the_oracle_range():
    """Criterion 2's range: n <= 5, |lam| + |mu| <= 12, lam_n and mu_n free."""
    for lam, mu in pairs_up_to(5, 12):
        assert lr_expansion(lam, mu) == per_nu(lam, mu, count_hives), (lam, mu)


def test_matches_tableaux_oracle():
    for lam, mu in pairs_up_to(4, 8):
        assert lr_expansion(lam, mu) == per_nu(lam, mu, lr_tableaux_count), (lam, mu)


def test_gl3_expansion_matches_per_nu_closed_form():
    """Every rank-3 lam, mu with |lam|, |mu| <= 9 (2,809 pairs, lam_3 and
    mu_3 free) against ``auto`` per nu, and its histogram against the per-nu
    ``gl3`` loop where that applies (lam_3 = mu_3 = 0)."""
    shapes = rank3_up_to(9)
    assert len(shapes) ** 2 == 2_809
    for lam in shapes:
        for mu in shapes:
            expansion = gl3_expansion(lam, mu)
            assert expansion == per_nu(lam, mu, lr_coefficient), (lam, mu)
            if lam[2] == mu[2] == 0:
                histogram = MultiplicityMultiset.make(Counter(expansion.values()))
                assert histogram == multiplicity_multiset(lam, mu, method="gl3"), (lam, mu)


def test_gl3_expansion_matches_product_and_tableaux():
    shapes = rank3_up_to(6)
    for lam in shapes:
        for mu in shapes:
            expansion = gl3_expansion(lam, mu)
            assert expansion == lr_expansion(lam, mu), (lam, mu)
            if lam.size + mu.size <= 8:
                assert expansion == per_nu(lam, mu, lr_tableaux_count), (lam, mu)


def test_edge_cases():
    lam = Partition((3, 1, 0))
    assert lr_expansion(lam, Partition((0, 0, 0))) == {lam: 1}
    for lam in (Partition((3, 1, 0)), Partition((4, 2, 1)), Partition((0, 0, 0))):
        assert gl3_expansion(lam, Partition((0, 0, 0))) == {lam: 1}
        assert gl3_expansion(Partition((0, 0, 0)), lam) == {lam: 1}
    assert lr_expansion(Partition((0,)), Partition((0,))) == {Partition((0,)): 1}
    assert lr_expansion(Partition((2,)), Partition((5,))) == {Partition((7,)): 1}
    # full columns on both sides, with no bar reduction: shift the rank-3 answer
    expected = {Partition(tuple(p + 3 for p in nu)): c
                for nu, c in lr_expansion(Partition((2, 1, 0)), Partition((2, 1, 0))).items()}
    assert lr_expansion(Partition((4, 3, 2)), Partition((3, 2, 1))) == expected
    assert gl3_expansion(Partition((4, 3, 2)), Partition((3, 2, 1))) == expected
    assert expected[Partition((6, 5, 4))] == 2


def test_rank_mismatch_raises():
    with pytest.raises(ValueError, match="rank mismatch"):
        lr_expansion(Partition((1, 0)), Partition((1, 0, 0)))
    with pytest.raises(ValueError, match="rank mismatch"):
        multiplicity_multiset(Partition((1, 0)), Partition((1, 0, 0)))


def test_rank3_rank_mismatch_raises():
    """A rank-3 lam with a rank-2 mu, in either order, is a rank mismatch
    on the rank-3 default path too, not a failed tuple unpacking."""
    rank3, rank2 = Partition((2, 1, 0)), Partition((1, 0))
    for lam, mu in ((rank3, rank2), (rank2, rank3)):
        with pytest.raises(ValueError, match="rank mismatch"):
            gl3_expansion(lam, mu)
        with pytest.raises(ValueError, match="rank mismatch"):
            multiplicity_multiset(lam, mu)
    with pytest.raises(ValueError, match="rank must be 3"):
        gl3_expansion(rank2, rank2)


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


def test_rank3_default_reads_closed_form_expansion(monkeypatch):
    """At rank 3 the default histogram is read from gl3_expansion's one
    pass: neither the product search nor the per-nu loop runs."""
    pairs = [(lam, mu) for lam, mu in pairs_up_to(3, 8) if lam.n == 3]
    expected = [multiplicity_multiset(lam, mu, method="auto") for lam, mu in pairs]

    def refuse(*args):
        raise AssertionError("the rank-3 default must read gl3_expansion")

    for name in ("_lr_counts", "lr_coefficient", "enumerate_nu_candidates"):
        monkeypatch.setattr(piecewise, name, refuse)
    assert [multiplicity_multiset(lam, mu) for lam, mu in pairs] == expected
