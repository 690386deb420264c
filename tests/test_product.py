"""Tests for the decomposition map lr_expansion: its two cores (the rank-3
closed form and the LR-tableau search) against each other and the per-nu
engines, the search's work pins, the histograms read from the map, and the
clamping lemma on the map."""

import json
from collections import Counter
from pathlib import Path

import pytest

from lrhive import piecewise, product
from lrhive.coefficients import lr_coefficient
from lrhive.formulas import _gl3_counts
from lrhive.hive import count_hives
from lrhive.partitions import Partition, dual_parts, enumerate_nu_candidates, partitions_of
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


def test_matches_hive_counts_over_the_oracle_range(monkeypatch):
    """Criterion 2's range: n <= 5, |lam| + |mu| <= 12, lam_n and mu_n free.
    The range fills each of the four shapes (mu, lam, mu*, lam*), so it
    checks the swap and the map back from nu' too."""
    search = product._tableau_counts
    filled = []

    def recorded(base, shape):
        filled.append((base, shape))
        return search(base, shape)

    monkeypatch.setattr(product, "_tableau_counts", recorded)
    shapes = Counter()
    for lam, mu in pairs_up_to(5, 12):
        filled.clear()
        assert lr_expansion(lam, mu) == per_nu(lam, mu, count_hives), (lam, mu)
        if lam.n != 3:
            (searched,) = filled
            lp, mp = lam.parts, mu.parts
            ld, md = dual_parts(lp), dual_parts(mp)
            shapes[[(lp, mp), (mp, lp), (ld, md), (md, ld)].index(searched)] += 1
    assert shapes == {0: 2_098, 1: 1_888, 2: 746, 3: 615}


def test_matches_tableaux_oracle():
    for lam, mu in pairs_up_to(4, 8):
        assert lr_expansion(lam, mu) == per_nu(lam, mu, lr_tableaux_count), (lam, mu)


def test_gl3_expansion_matches_per_nu_closed_form():
    """``lr_expansion`` at rank 3: every lam, mu with |lam|, |mu| <= 9
    (2,809 pairs, lam_3 and mu_3 free) against ``auto`` per nu, and its
    histogram against the per-nu ``gl3`` loop where that applies
    (lam_3 = mu_3 = 0)."""
    shapes = rank3_up_to(9)
    assert len(shapes) ** 2 == 2_809
    for lam in shapes:
        for mu in shapes:
            expansion = lr_expansion(lam, mu)
            assert expansion == per_nu(lam, mu, lr_coefficient), (lam, mu)
            if lam[2] == mu[2] == 0:
                histogram = MultiplicityMultiset.make(Counter(expansion.values()))
                assert histogram == multiplicity_multiset(lam, mu, method="gl3"), (lam, mu)


def test_gl3_expansion_matches_product_and_tableaux():
    """The rank-3 closed form against the tableau search it replaces there,
    and against the tableaux oracle."""
    shapes = rank3_up_to(6)
    for lam in shapes:
        for mu in shapes:
            counts = _gl3_counts(lam, mu)
            assert counts == product._tableau_counts(lam.parts, mu.parts), (lam, mu)
            if lam.size + mu.size <= 8:
                tableaux = per_nu(lam, mu, lr_tableaux_count)
                assert counts == {nu.parts: c for nu, c in tableaux.items()}, (lam, mu)


def test_edge_cases():
    zero = Partition((0, 0, 0))
    for lam in (Partition((3, 1, 0)), Partition((4, 2, 1)), zero):
        assert lr_expansion(lam, zero) == {lam: 1}
        assert lr_expansion(zero, lam) == {lam: 1}
        assert product._tableau_counts(lam.parts, zero.parts) == {lam.parts: 1}
    assert lr_expansion(Partition((0,)), Partition((0,))) == {Partition((0,)): 1}
    assert lr_expansion(Partition((2,)), Partition((5,))) == {Partition((7,)): 1}
    # full columns on both sides, with no bar reduction: shift the rank-3 answer
    expected = {tuple(p + 3 for p in nu): c
                for nu, c in product._tableau_counts((2, 1, 0), (2, 1, 0)).items()}
    full_lam, full_mu = Partition((4, 3, 2)), Partition((3, 2, 1))
    assert product._tableau_counts(full_lam.parts, full_mu.parts) == expected
    assert lr_expansion(full_lam, full_mu) == {Partition(nu): c for nu, c in expected.items()}
    assert expected[6, 5, 4] == 2


def clamped(parts, width):
    """The bar-reduced partition whose gaps are those of ``parts``, each cut
    to at most ``width``."""
    out = [0]
    for upper, lower in zip(parts[-2::-1], parts[::-1]):
        out.append(out[-1] + min(upper - lower, width))
    return Partition(tuple(out[::-1]))


def test_clamping_lemma():
    """The translated map nu - lam -> c depends on each gap of lam only
    through min(gap, w(mu)), w(mu) = mu_1 - mu_n (ROADMAP item 18): checked
    on bar-reduced lam, mu at n = 3 (parts <= 6), 4 (<= 5) and 5 (<= 3).
    Clamping at w(mu) - 1 changes the map wherever it moves lam."""
    def translated(lam, mu):
        return {tuple(x - y for x, y in zip(nu.parts, lam.parts)): c
                for nu, c in lr_expansion(lam, mu).items()}

    held = changed = 0
    for n, top in ((3, 6), (4, 5), (5, 3)):
        shapes = [pad(s, n) for size in range(top * (n - 1) + 1) for s in partitions_of(size, n - 1, top)]
        for lam in shapes:
            for mu in shapes:
                w = mu[0] - mu[n - 1]
                expansion = translated(lam, mu)
                if (at_w := clamped(lam.parts, w)) != lam:
                    assert translated(at_w, mu) == expansion, (lam, mu)
                    held += 1
                if w and (below := clamped(lam.parts, w - 1)) != lam:
                    changed += translated(below, mu) != expansion
    assert (held, changed) == (920, 1_724)


def test_rank_mismatch_raises():
    with pytest.raises(ValueError, match="rank mismatch"):
        lr_expansion(Partition((1, 0)), Partition((1, 0, 0)))
    with pytest.raises(ValueError, match="rank mismatch"):
        multiplicity_multiset(Partition((1, 0)), Partition((1, 0, 0)))


def test_rank3_rank_mismatch_raises():
    """A rank-3 lam with a rank-2 mu, in either order, is a rank mismatch
    on the rank-3 path too, not a failed tuple unpacking."""
    rank3, rank2 = Partition((2, 1, 0)), Partition((1, 0))
    for lam, mu in ((rank3, rank2), (rank2, rank3)):
        with pytest.raises(ValueError, match="rank mismatch"):
            lr_expansion(lam, mu)
        with pytest.raises(ValueError, match="rank mismatch"):
            multiplicity_multiset(lam, mu)
    for lam, mu in ((rank2, rank2), (rank3, rank2)):
        with pytest.raises(ValueError, match="rank must be 3"):
            _gl3_counts(lam, mu)


def _product_nodes(monkeypatch, lam, mu):
    """Values placed by the tableau search behind ``lr_expansion`` (ranks
    other than 3): each placement reads the plan's ``next_above`` once."""
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


def test_product_work_pinned_swap(monkeypatch):
    """lam has 12 cells against 32, 17 and 23 in mu, mu*, lam*: the search
    fills lam.  Filling mu, as before the choice of shape, took 7,768 nodes."""
    lam, mu = Partition((5, 2, 2, 2, 1, 0, 0)), Partition((7, 7, 4, 4, 4, 4, 2))
    assert _product_nodes(monkeypatch, lam, mu) == 855


def test_product_work_pinned_dual(monkeypatch):
    """lam* = (5, 5, 3, 1, 0, 0, 0) has 14 cells against 26, 21 and 16 in
    mu, lam, mu*: the search fills it and counts nu'.  Filling mu, as before
    the choice of shape, took 30,965 nodes."""
    lam, mu = Partition((5, 5, 5, 4, 2, 0, 0)), Partition((6, 5, 4, 4, 3, 2, 2))
    assert _product_nodes(monkeypatch, lam, mu) == 2_464


def test_expansion_matches_the_search_on_mu_for_benchmark_pairs():
    """The first pair of every benchmark stratum (48 pairs, ranks 5..7):
    the map from whichever shape it fills equals the search on mu."""
    for stratum in json.loads(PAIRS.read_text())["strata"]:
        lam, mu = (Partition(tuple(stratum[0][k])) for k in ("lambda", "mu"))
        expected = product._tableau_counts(lam.parts, mu.parts)
        assert lr_expansion(lam, mu) == {Partition(nu): c for nu, c in expected.items()}, (lam, mu)


def test_default_histogram_matches_hive_on_benchmark_pairs():
    strata = json.loads(PAIRS.read_text())["strata"]
    for stratum in strata[::4]:
        lam, mu = (Partition(tuple(stratum[0][k])) for k in ("lambda", "mu"))
        assert multiplicity_multiset(lam, mu) == multiplicity_multiset(lam, mu, method="hive")


def test_rank3_default_reads_closed_form_expansion(monkeypatch):
    """At rank 3 the map and the default histogram are read from the closed
    form's one pass: neither the tableau search nor the per-nu loop runs."""
    pairs = [(lam, mu) for lam, mu in pairs_up_to(3, 8) if lam.n == 3]
    expected = [multiplicity_multiset(lam, mu, method="auto") for lam, mu in pairs]
    maps = [per_nu(lam, mu, lr_coefficient) for lam, mu in pairs]

    def refuse(*args):
        raise AssertionError("rank 3 must read the closed form")

    monkeypatch.setattr(product, "_tableau_counts", refuse)
    for name in ("lr_coefficient", "enumerate_nu_candidates"):
        monkeypatch.setattr(piecewise, name, refuse)
    assert [multiplicity_multiset(lam, mu) for lam, mu in pairs] == expected
    assert [lr_expansion(lam, mu) for lam, mu in pairs] == maps
