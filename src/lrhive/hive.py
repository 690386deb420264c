"""The hive model: boundary layout, rhombus constraints, exact hive counting.

A hive of size n is a triangular array of integers.  Vertices are indexed
(i, j) with 0 <= j <= i <= n; row 0 is the single corner vertex labeled 0
(the apex), row i has i + 1 vertices.  The boundary carries partial sums:

    edge j = 0      : 0, lam_1, lam_1+lam_2, ..., |lam|
    edge i = n      : |lam|, |lam|+mu_1, ..., |lam|+|mu|
    edge j = i      : 0, nu_1, nu_1+nu_2, ..., |nu|

The number of hives with this boundary equals the Littlewood-Richardson
coefficient c_{lam,mu}^nu (Knutson-Tao).
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition, Record, common_rank, is_near_rectangular, padded

Vertex = tuple[int, int]


def rhombus_constraints(n: int) -> list[tuple[Vertex, Vertex, Vertex, Vertex]]:
    """All 3*n*(n-1)/2 rhombus constraints for size n (none for n = 1), each
    as vertices (b, c, a, d) meaning b + c >= a + d: (b, c) on the short
    diagonal, (a, d) the opposite pair."""
    out = []
    for i in range(1, n):
        for j in range(i):
            # shared edge inside row i
            out.append(((i, j), (i, j + 1), (i - 1, j), (i + 1, j + 1)))
            # shared edge between (i, j) and (i+1, j+1)
            out.append(((i, j), (i + 1, j + 1), (i + 1, j), (i, j + 1)))
        for j in range(1, i + 1):
            # shared edge between (i, j) and (i+1, j)
            out.append(((i, j), (i + 1, j), (i, j - 1), (i + 1, j + 1)))
    return out


def hive_boundary(lam: Partition, mu: Partition, nu: Partition) -> list[list[int | None]]:
    """Boundary skeleton: rows apex-first, interior vertices set to None."""
    n = common_rank(lam, mu, nu)
    if nu.size != lam.size + mu.size:
        raise ValueError(f"unbalanced triple: |nu|={nu.size} != |lam|+|mu|={lam.size + mu.size}")
    rows: list[list[int | None]] = [[None] * (i + 1) for i in range(n + 1)]
    rows[0][0] = 0
    for i in range(1, n + 1):
        rows[i][0] = rows[i - 1][0] + lam[i - 1]
        rows[i][i] = rows[i - 1][i - 1] + nu[i - 1]
    for j in range(1, n):
        rows[n][j] = rows[n][j - 1] + mu[j - 1]
    return rows


class Hive(Record):
    """A fully labeled hive, stored as rows from the apex down."""

    _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def __getitem__(self, v: Vertex) -> int:
        return self.rows[v[0]][v[1]]

    def is_valid(self) -> bool:
        return all(self[b] + self[c] >= self[a] + self[d]
                   for b, c, a, d in rhombus_constraints(self.n))

    def boundary(self) -> tuple[Partition, Partition, Partition]:
        """Recover (lam, mu, nu) from the boundary partial sums."""
        n = self.n
        lam = tuple(self.rows[i][0] - self.rows[i - 1][0] for i in range(1, n + 1))
        nu = tuple(self.rows[i][i] - self.rows[i - 1][i - 1] for i in range(1, n + 1))
        mu = tuple(self.rows[n][j] - self.rows[n][j - 1] for j in range(1, n + 1))
        return Partition(lam), Partition(mu), Partition(nu)


@lru_cache(maxsize=None)
def _search_plan(n: int):
    """The search order and bound rules for size n, as vertex numbers.

    Vertex (i, j) is number i*(i+1)//2 + j (row-major from the apex).
    Returns the interior vertices row by row from the mu edge up: i = n-1
    down to 2, and within row i the columns j = i-1 down to 1, so each row
    runs parallel to the mu edge, starting next to it, and is read from its
    nu end.  For each of them the lower rules (u, w, o),
    meaning label >= label[u] + label[w] - label[o], and the upper rules,
    meaning label <= the same sum, taken from every constraint whose other
    three vertices are set by then; and the constraints (b, c, a, d),
    meaning b + c >= a + d, that involve no interior vertex.

    The search starts at (n-1, n-2), beside the (n, n) corner, where mu
    and nu carry their smallest parts, so dead ends show near the top of
    the search.  On ROADMAP's rank-6
    baseline pair it takes 31,197 nodes, against 553,631 for a row-major
    fill from the apex and 156,081 for column-by-column along the lam edge.
    """
    def num(v: Vertex) -> int:
        return v[0] * (v[0] + 1) // 2 + v[1]

    interior = [num((i, j)) for i in range(n - 1, 1, -1) for j in range(i - 1, 0, -1)]
    order = {v: t for t, v in enumerate(interior)}
    lower: list[list[tuple[int, int, int]]] = [[] for _ in interior]
    upper: list[list[tuple[int, int, int]]] = [[] for _ in interior]
    boundary_only = []
    for c in rhombus_constraints(n):
        b, cc, a, d = map(num, c)
        t, v = max((order.get(u, -1), u) for u in (b, cc, a, d))
        if t < 0:
            boundary_only.append((b, cc, a, d))
        elif v in (b, cc):
            lower[t].append((a, d, cc if v == b else b))
        else:
            upper[t].append((b, cc, d if v == a else a))
    if not all(lower) or not all(upper):
        raise RuntimeError("interior vertex with a one-sided bound; search plan is broken")
    return tuple(interior), tuple(map(tuple, lower)), tuple(map(tuple, upper)), tuple(boundary_only)


def _search(lam: Partition, mu: Partition, nu: Partition):
    """Depth-first search over the hives with the given boundary.

    Yields (label, v, lo, hi) for every labeling of all interior vertices
    but the last one, v, that leaves v a nonempty range [lo, hi].  ``label``
    is the flat list of labels by vertex number, reused between yields.
    With no interior vertex, the apex (label 0) stands in for v.
    """
    n = common_rank(lam, mu, nu)
    if nu.size != lam.size + mu.size:
        return
    label = [x for row in hive_boundary(lam, mu, nu) for x in row]
    interior, lower, upper, boundary_only = _search_plan(n)
    for b, c, a, d in boundary_only:
        if label[b] + label[c] < label[a] + label[d]:
            return
    if not interior:
        yield label, 0, 0, 0
        return
    last = len(interior) - 1
    highs = [0] * len(interior)  # upper bound of the vertex at each depth
    t = 0
    while t >= 0:
        lo = hi = None
        for u, w, o in lower[t]:
            x = label[u] + label[w] - label[o]
            if lo is None or x > lo:
                lo = x
        for u, w, o in upper[t]:
            x = label[u] + label[w] - label[o]
            if hi is None or x < hi:
                hi = x
        if lo <= hi:
            if t < last:
                label[interior[t]] = lo
                highs[t] = hi
                t += 1
                continue
            yield label, interior[t], lo, hi
        # backtrack to the deepest vertex that can still go up by one
        t -= 1
        while t >= 0 and label[interior[t]] == highs[t]:
            t -= 1
        if t >= 0:
            label[interior[t]] += 1
            t += 1


def count_hives(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient c_{lam,mu}^nu by exhaustive
    integer-point enumeration over the hive polytope.

    Returns 0 immediately on unbalanced input.
    """
    total = 0
    for _, _, lo, hi in _search(lam, mu, nu):
        total += hi - lo + 1
    return total


def enumerate_hives(lam: Partition, mu: Partition, nu: Partition) -> list[Hive]:
    """Materialize every hive with the given boundary."""
    starts = range(lam.n + 1)
    out: list[Hive] = []
    for label, v, lo, hi in _search(lam, mu, nu):
        for x in range(lo, hi + 1):
            label[v] = x
            out.append(Hive(tuple(
                tuple(label[i * (i + 1) // 2:(i + 1) * (i + 2) // 2]) for i in starts)))
    return out


def restrict_hive(h: Hive) -> Hive:
    """Restrict a hive with near-rectangular lam, mu boundary to size 4.

    Keeps the three corner regions (the rest of the hive is forced by the
    rhombus inequalities); this is a bijection onto the hives for the
    truncated boundary (lam1, lam2, lam2, 0), (mu1, mu2, mu2, 0),
    (nu1, nu2, nu_{n-1}, nu_n).
    """
    n = h.n
    if n < 4:
        raise ValueError("restriction needs size >= 4")
    lam, mu, nu = h.boundary()
    if not (is_near_rectangular(lam) and is_near_rectangular(mu)):
        raise ValueError("lam and mu boundaries must be near-rectangular")
    if lam[n - 1] != 0 or mu[n - 1] != 0:
        raise ValueError("lam and mu must have last part 0")
    if not h.is_valid():
        raise ValueError("input is not a hive")
    if n == 4:
        return h

    lam4 = padded((lam[0],), lam[1], (0,), 4)
    mu4 = padded((mu[0],), mu[1], (0,), 4)
    nu4 = padded(nu.parts[:2], lam[1] + mu[1], nu.parts[n - 2:], 4)
    rows = hive_boundary(lam4, mu4, nu4)
    # The whole hive is pinned by the label next to the |lam| corner; shift it
    # by the middle parts dropped from the left edge.
    x = h[(n - 1, 1)] + (4 - n) * lam[1]
    rows[3][1] = x
    rows[2][1] = x - lam[1]
    rows[3][2] = x + mu[1]
    out = Hive(tuple(tuple(r) for r in rows))
    if not out.is_valid():
        raise ValueError("restriction produced an invalid hive; boundary outside the bijection's domain")
    return out
