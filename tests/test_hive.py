"""Tests for the hive counting engine."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrhive import hive
from lrhive.cli import main
from lrhive.hive import (
    Hive,
    count_hives,
    enumerate_hives,
    hive_boundary,
    restrict_hive,
    rhombus_constraints,
)
from lrhive.partitions import Partition, enumerate_nu_candidates, partitions_of
from lrhive.piecewise import multiplicity_multiset
from lrhive.tableaux import lr_tableaux_count


def test_constraint_count():
    for n in range(2, 7):
        assert len(rhombus_constraints(n)) == 3 * n * (n - 1) // 2


def test_boundary_layout():
    lam, mu = Partition((5, 3, 0, 0)), Partition((6, 3, 0, 0))
    nu = Partition((8, 6, 3, 0))
    rows = hive_boundary(lam, mu, nu)
    assert [r[0] for r in rows] == [0, 5, 8, 8, 8]
    assert [rows[i][i] for i in range(5)] == [0, 8, 14, 17, 17]
    assert rows[4] == [8, 14, 17, 17, 17]
    with pytest.raises(ValueError):
        hive_boundary(lam, mu, Partition((8, 6, 2, 0)))


def test_trivial_boundary():
    rows = hive_boundary(Partition((1, 0)), Partition((1, 0)), Partition((2, 0)))
    assert rows == [[0], [1, 2], [1, 2, 2]]


def test_small_counts():
    one = Partition((1, 0))
    assert count_hives(one, one, Partition((2, 0))) == 1
    assert count_hives(one, one, Partition((1, 1))) == 1
    # the classic multiplicity-2 example at rank 3
    lam = Partition((2, 1, 0))
    assert count_hives(lam, lam, Partition((3, 2, 1))) == 2
    assert count_hives(lam, lam, Partition((2, 2, 2))) == 1
    # unbalanced input counts zero
    assert count_hives(one, one, Partition((1, 0))) == 0


def test_worked_example_count():
    lam, mu = Partition((5, 3, 0)), Partition((6, 3, 0))
    assert count_hives(lam, mu, Partition((8, 6, 3))) == 3
    assert count_hives(lam, mu, Partition((9, 8, 0))) == 1
    assert count_hives(lam, mu, Partition((11, 6, 0))) == 1
    assert count_hives(lam, mu, Partition((7, 6, 4))) == 2


def test_enumerate_matches_count_and_validates():
    for lam, mu, nu, count in [
        ((2,), (1,), (3,), 1),  # rank 1: the boundary is the whole hive
        ((2, 1), (1, 0), (3, 1), 1),  # rank 2: no interior vertex either
        ((2, 1), (1, 0), (2, 2), 1),
        ((2, 1), (1, 0), (4, 0), 0),  # only the boundary-only rhombi rule it out
        ((5, 3, 0), (6, 3, 0), (8, 6, 3), 3),
        ((3, 2, 1, 0), (3, 1, 1, 0), (5, 3, 2, 1), 3),
        ((3, 2, 1, 0), (3, 1, 1, 0), (5, 5, 1, 0), 0),  # nu contains lam and mu
        ((4, 2, 1, 0, 0), (3, 2, 1, 0, 0), (6, 4, 2, 1, 0), 4),
    ]:
        lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
        hives = enumerate_hives(lam, mu, nu)
        assert len(hives) == len(set(hives)) == count_hives(lam, mu, nu) == count
        for h in hives:
            assert h.is_valid()
            assert h.boundary() == (lam, mu, nu)
    assert enumerate_hives(Partition((2,)), Partition((1,)), Partition((3,))) == [
        Hive(((0,), (2, 3)))]


def test_enumerated_hives_are_valid_ranks_1_to_5():
    """Every hive the search yields satisfies every rhombus inequality and
    has the requested boundary, over all triples with |lam|, |mu| <= 3."""
    for n in range(1, 6):
        shapes = [Partition(s + (0,) * (n - len(s)))
                  for size in range(4) for s in partitions_of(size, n)]
        for lam in shapes:
            for mu in shapes:
                for nu in enumerate_nu_candidates(lam, mu):
                    hives = enumerate_hives(lam, mu, nu)
                    assert len(hives) == count_hives(lam, mu, nu)
                    for h in hives:
                        assert h.is_valid() and h.boundary() == (lam, mu, nu)


def test_search_has_no_depth_limit(capsys):
    """The DFS keeps its own stack: (n-1)(n-2)/2 = 1176 interior vertices at
    n = 50, far past Python's recursion limit."""
    n = 50
    one = Partition((1,) + (0,) * (n - 1))
    assert count_hives(one, one, Partition((2,) + (0,) * (n - 1))) == 1
    assert count_hives(one, one, Partition((1, 1) + (0,) * (n - 2))) == 1
    for argv in (["--method", "hive", "--lambda", "1", "--mu", "1", "--nu", "2"],
                 ["--lambda", "2,1", "--mu", "1", "--nu", "3,1"]):
        assert main(["lr", *argv, "--n", str(n)]) == 0
        assert capsys.readouterr() == ("1\n", "")


def _num(v):
    return v[0] * (v[0] + 1) // 2 + v[1]


@pytest.mark.parametrize("n", range(1, 9))
def test_search_plan_invariants(n):
    """Each interior vertex comes once; each rule reads only the boundary and
    earlier vertices; the rules and the boundary-only list hold every rhombus
    once, as ({short diagonal}, {opposite pair})."""
    interior, lower, upper, boundary_only = hive._search_plan(n)
    assert sorted(interior) == sorted(_num((i, j)) for i in range(2, n) for j in range(1, i))
    assert len(interior) == len(lower) == len(upper)
    position = {v: t for t, v in enumerate(interior)}
    held = Counter()
    for t, v in enumerate(interior):
        assert lower[t] and upper[t]
        for u, w, o in lower[t] + upper[t]:
            assert all(position.get(x, -1) < t for x in (u, w, o))
        held.update((frozenset((v, o)), frozenset((u, w))) for u, w, o in lower[t])
        held.update((frozenset((u, w)), frozenset((v, o))) for u, w, o in upper[t])
    for b, c, a, d in boundary_only:
        assert all(x not in position for x in (b, c, a, d))
    held.update((frozenset((b, c)), frozenset((a, d))) for b, c, a, d in boundary_only)
    rhombi = Counter((frozenset((_num(b), _num(c))), frozenset((_num(a), _num(d))))
                     for b, c, a, d in rhombus_constraints(n))
    assert held == rhombi and sum(held.values()) == 3 * n * (n - 1) // 2
    assert set(held.values()) <= {1}


def test_search_plan_fills_rows_from_the_mu_edge():
    """Lines parallel to the mu edge, starting next to it, each read from its
    nu end: the search starts at (n-1, n-2), beside the (n, n) corner, and
    ends at (2, 1)."""
    assert hive._search_plan(4)[0] == tuple(_num(v) for v in [(3, 2), (3, 1), (2, 1)])
    assert hive._search_plan(5)[0] == tuple(
        _num(v) for v in [(4, 3), (4, 2), (4, 1), (3, 2), (3, 1), (2, 1)])


def test_hives_match_tableaux_ranks_1_to_6():
    """count_hives against the independent tableaux oracle at every candidate
    nu of every pair with |lam|, |mu| <= 4."""
    for n in range(1, 7):
        shapes = [Partition(s + (0,) * (n - len(s)))
                  for size in range(5) for s in partitions_of(size, n)]
        for lam in shapes:
            for mu in shapes:
                for nu in enumerate_nu_candidates(lam, mu):
                    assert count_hives(lam, mu, nu) == lr_tableaux_count(lam, mu, nu), (lam, mu, nu)


def _search_nodes(monkeypatch, lam, mu):
    """DFS nodes summed over every candidate nu: the reads of the plan's
    lower rules in the real ``_search`` (each node reads its vertex's lower
    rules once)."""
    class Counted(tuple):
        reads = 0

        def __getitem__(self, t):
            Counted.reads += 1
            return tuple.__getitem__(self, t)

    plan = hive._search_plan

    def counted_plan(n):
        interior, lower, upper, boundary_only = plan(n)
        return interior, Counted(lower), upper, boundary_only

    monkeypatch.setattr(hive, "_search_plan", counted_plan)
    for nu in enumerate_nu_candidates(lam, mu):
        for _ in hive._search(lam, mu, nu):
            pass
    return Counted.reads


def test_search_work_pinned_rank6(monkeypatch):
    """Deterministic work of the DFS on ROADMAP baseline 1.  The row-major
    order took 553,631 nodes and the column order 156,081, so undoing the
    order fails here, not only in wall time.  The last vertex, whose range
    is summed, is now (2, 1): the 7,849 hives come in 5,925 yields, where
    both earlier orders ended at (n-1, n-2) and yielded one per hive."""
    lam, mu = Partition((8, 5, 3, 1, 0, 0)), Partition((6, 4, 2, 1, 0, 0))
    assert _search_nodes(monkeypatch, lam, mu) == 31_197


def test_search_work_pinned_rank7_staircase(monkeypatch):
    """The rank-7 staircase pair, counted the same way (row-major 908,289,
    column order 359,208)."""
    lam, mu = Partition((6, 5, 4, 3, 2, 1, 0)), Partition((5, 4, 3, 2, 1, 0, 0))
    assert _search_nodes(monkeypatch, lam, mu) == 200_892


def test_multiset_pinned_rank6():
    """ROADMAP baseline 1, checked against the tableaux oracle by the
    multiset-hive benchmark."""
    ms = multiplicity_multiset(Partition((8, 5, 3, 1, 0, 0)), Partition((6, 4, 2, 1, 0, 0)))
    assert (ms.components, ms.mult_sum) == (648, 7849)


def test_multiset_pinned_rank7_staircase():
    """ROADMAP baseline 2, also checked against the tableaux oracle by the
    multiset-hive benchmark."""
    ms = multiplicity_multiset(Partition((6, 5, 4, 3, 2, 1, 0)), Partition((5, 4, 3, 2, 1, 0, 0)))
    assert (ms.components, ms.mult_sum) == (791, 27268)


def test_enumerated_hives_are_exactly_the_valid_labelings():
    """Brute-force cross-check on a small boundary: the engine finds every
    integer labeling satisfying all rhombus inequalities, and nothing else."""
    lam, mu = Partition((2, 1, 0)), Partition((2, 1, 0))
    nu = Partition((3, 2, 1))
    rows = hive_boundary(lam, mu, nu)
    found = {h.rows for h in enumerate_hives(lam, mu, nu)}
    brute = set()
    lo = min(x for r in rows for x in r if x is not None)
    hi = max(x for r in rows for x in r if x is not None)
    for x in range(lo, hi + 1):
        trial = [list(r) for r in rows]
        trial[2][1] = x  # the single interior vertex at n = 3
        h = Hive(tuple(tuple(r) for r in trial))
        if h.is_valid():
            brute.add(h.rows)
    assert found == brute and len(brute) == 2


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_commutativity(a, b, c, d):
    lam = Partition(tuple(sorted((a, b, 0), reverse=True)))
    mu = Partition(tuple(sorted((c, d, 0), reverse=True)))
    for shape in partitions_of(lam.size + mu.size, 3, lam[0] + mu[0]):
        nu = Partition(shape + (0,) * (3 - len(shape)))
        assert count_hives(lam, mu, nu) == count_hives(mu, lam, nu)


def _nr(l1, l2, n):
    return Partition((l1,) + (l2,) * (n - 2) + (0,))


def test_restrict_hive_bijection():
    """Restriction to size 4 is a count-preserving bijection for
    near-rectangular lam, mu at every rank 5..6."""
    for n in (5, 6):
        for l1, l2, m1, m2 in [(3, 1, 2, 1), (2, 2, 2, 1), (4, 2, 3, 3)]:
            lam, mu = _nr(l1, l2, n), _nr(m1, m2, n)
            lam4, mu4 = _nr(l1, l2, 4), _nr(m1, m2, 4)
            mid = l2 + m2
            total = lam.size + mu.size
            for shape in partitions_of(total, n, l1 + m1):
                nu = Partition(shape + (0,) * (n - len(shape)))
                if any(nu[i] != mid for i in range(2, n - 2)):
                    continue
                hives = enumerate_hives(lam, mu, nu)
                nu4 = Partition((nu[0], nu[1], nu[n - 2], nu[n - 1]))
                images = {restrict_hive(h).rows for h in hives}
                assert len(images) == len(hives) == count_hives(lam4, mu4, nu4)
                for h in map(Hive, images):
                    assert h.boundary() == (lam4, mu4, nu4)


def test_restrict_hive_rejects_bad_input():
    lam, mu = Partition((3, 3, 2, 0, 0)), Partition((4, 4, 1, 0, 0))
    nu = Partition((5, 4, 4, 2, 2))
    h = enumerate_hives(lam, mu, nu)[0]
    with pytest.raises(ValueError):
        restrict_hive(h)  # lam not near-rectangular
    rank3 = enumerate_hives(Partition((2, 1, 0)), Partition((2, 1, 0)), Partition((3, 2, 1)))[0]
    with pytest.raises(ValueError, match="size >= 4"):
        restrict_hive(rank3)
    lam = mu = Partition((2, 1, 1, 1))
    h = enumerate_hives(lam, mu, Partition((4, 2, 2, 2)))[0]
    with pytest.raises(ValueError, match="last part 0"):
        restrict_hive(h)  # near-rectangular, but not bar-reduced


def test_restrict_hive_at_size_4():
    """At size 4 a hive is its own restriction; a labeling that breaks a
    rhombus inequality is refused."""
    lam = mu = Partition((2, 1, 1, 0))
    h = enumerate_hives(lam, mu, Partition((4, 2, 2, 0)))[0]
    assert restrict_hive(h) is h
    rows = [list(r) for r in h.rows]
    rows[2][1] += 5
    with pytest.raises(ValueError, match="not a hive"):
        restrict_hive(Hive(tuple(map(tuple, rows))))
