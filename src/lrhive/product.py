"""The whole decomposition of V(lam) (x) V(mu): every nu with c > 0, in one pass.

``lr_expansion`` is the one decomposition map, at every rank.  At rank 3 it
reads the interval formula (``formulas._gl3_counts``), O(1) per candidate
nu, where the search below would make one leaf per LR tableau.  At every
other rank it runs the tableau form of the Littlewood-Richardson rule,
which builds s_lam * s_mu directly (Fulton, *Young Tableaux*, 1997, section
5; the rule of Buch's lrcalc ``mult``): fill shape mu with entries at most n,
rows weakly increasing and columns strictly increasing, and read it top row
first, each row right to left.  Keep a filling only while lam plus the
weight read so far stays a partition.  Each kept filling T adds 1 to
c_{lam,mu}^nu for nu = lam + wt(T), so no nu with c = 0 is ever visited,
and lam_n > 0 or mu_n > 0 needs no bar reduction.
"""

from __future__ import annotations

from .formulas import _gl3_counts
from .partitions import Partition


def _fill_plan(mu: tuple[int, ...]):
    """The cells of shape mu, top row first, each row right to left, as
    indices into the value list ``vals`` of the search.

    Returns (right, next_above): cell k takes values up to vals[right[k]],
    and cell k + 1 takes values from vals[next_above[k]] + 1.  Two sentinels
    follow the cells: vals[m] = n stands in for a missing right neighbour and
    vals[m + 1] = 0 for a missing cell above.  ``next_above`` is read once
    per value placed, and its -1 marks the last cell.
    """
    n = len(mu)
    index = {}
    for r in range(n):
        for c in range(mu[r] - 1, -1, -1):
            index[r, c] = len(index)
    m = len(index)
    right = tuple(index.get((r, c + 1), m) for r, c in index)
    above = tuple(index.get((r - 1, c), m + 1) for r, c in index)
    return right, above[1:] + (-1,)


def lr_expansion(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Every nu with c_{lam,mu}^nu > 0, mapped to that coefficient, for lam
    and mu of any one rank."""
    return {Partition(nu): c for nu, c in _lr_counts(lam, mu).items()}


def _lr_counts(lam: Partition, mu: Partition) -> dict[tuple[int, ...], int]:
    """``lr_expansion`` keyed by the parts of nu, for callers that read only
    the coefficients: the closed form at rank 3, the tableau search otherwise."""
    if lam.n != mu.n:
        raise ValueError("rank mismatch")
    return _gl3_counts(lam, mu) if lam.n == 3 else _tableau_counts(lam, mu)


def _tableau_counts(lam: Partition, mu: Partition) -> dict[tuple[int, ...], int]:
    """The LR-tableau search for lam, mu of one rank.

    Depth-first over the fillings of shape mu with its own stack, so it has
    no depth limit.  One node is one value placed in one cell.
    """
    n = lam.n
    right, next_above = _fill_plan(mu.parts)
    m = len(right)
    if not m:
        return {lam.parts: 1}
    vals = [0] * m + [n, 0]
    wt = list(lam.parts)  # lam plus the weight of the cells filled so far
    counts: dict[tuple[int, ...], int] = {}
    k, v = 0, 1
    while True:
        hi = vals[right[k]]
        while 1 < v <= hi and wt[v - 1] >= wt[v - 2]:  # v would break the partition
            v += 1
        if v > hi:  # cell k has no value left: take back the one before it
            k -= 1
            if k < 0:
                break
            v = vals[k]
            wt[v - 1] -= 1
            v += 1
            continue
        wt[v - 1] += 1
        up = next_above[k]
        if up < 0:  # the last cell: wt is nu
            nu = tuple(wt)
            counts[nu] = counts.get(nu, 0) + 1
            wt[v - 1] -= 1
            v += 1
        else:
            vals[k] = v
            k += 1
            v = vals[up] + 1
    return counts
