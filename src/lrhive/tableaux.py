"""Littlewood-Richardson coefficients by counting LR skew tableaux.

This is the cross-validation oracle for the hive engine.  It deliberately
shares nothing with :mod:`lrhive.hive` beyond the Partition type: simple
cell-by-cell backtracking whose correctness is easy to audit, with no regard
for speed.
"""

from __future__ import annotations

from .partitions import Partition


def conjugate(lam: Partition) -> Partition:
    """Conjugate partition, ambient rank = largest part (rank 1 if empty)."""
    width = lam[0]
    if width == 0:
        return Partition((0,))
    cols = tuple(sum(1 for p in lam if p > j) for j in range(width))
    return Partition(cols)


def lr_tableaux_count(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Number of LR skew tableaux of shape nu/lam and content mu.

    Rows weakly increase, columns strictly increase, and the reverse reading
    word (right to left, top to bottom) is a lattice word.  Returns 0 when
    lam is not contained in nu or the sizes do not balance.
    """
    if not (lam.n == mu.n == nu.n):
        raise ValueError("rank mismatch")
    n = lam.n
    if nu.size != lam.size + mu.size:
        return 0
    if any(lam[i] > nu[i] for i in range(n)):
        return 0
    if mu.size == 0:
        return 1

    # cells in reverse reading order: top row first, right to left
    cells = []
    for r in range(n):
        for c in range(nu[r] - 1, lam[r] - 1, -1):
            cells.append((r, c))

    content = [0] * (n + 1)  # content[v] = copies of v placed so far
    grid = [[0] * nu[r] for r in range(n)]  # 0 = empty
    target = mu.parts
    total = 0
    # One loop over the cells, no recursion: each cell's grid value is the
    # value it tried last, so stepping back to a cell resumes its search.
    k = 0
    while k >= 0:
        r, c = cells[k]
        v = grid[r][c]
        if v:
            content[v] -= 1  # take back the value tried last
        elif r > 0 and c >= lam[r - 1]:
            v = grid[r - 1][c]  # columns strictly increase under a cell of nu/lam
        hi = grid[r][c + 1] if c + 1 < nu[r] else n  # rows weakly increase
        v += 1
        while v <= hi and (content[v] >= target[v - 1] or v > 1 and content[v] >= content[v - 1]):
            v += 1  # content full, or the lattice word prefix would fail
        if v > hi:
            grid[r][c] = 0
            k -= 1  # exhausted: step back
            continue
        content[v] += 1
        grid[r][c] = v
        if k == len(cells) - 1:
            total += 1
        else:
            k += 1
    return total


def lr_conjugation_check(lam: Partition, mu: Partition, nu: Partition) -> bool:
    """Invariance under simultaneous conjugation of all three partitions."""
    direct = lr_tableaux_count(lam, mu, nu)
    rank = max(lam[0], mu[0], nu[0], 1)

    def embed(p: Partition) -> Partition:
        q = conjugate(p)
        return Partition(q.parts + (0,) * (rank - q.n))

    return direct == lr_tableaux_count(embed(lam), embed(mu), embed(nu))
