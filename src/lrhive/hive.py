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

from dataclasses import dataclass

from .partitions import Partition, is_near_rectangular

Vertex = tuple[int, int]


@dataclass(frozen=True)
class RhombusConstraint:
    """One rhombus inequality b + c >= a + d.

    ``pos`` holds the vertices (b, c) on the short diagonal, ``neg`` the
    opposite pair (a, d).  ``kind`` distinguishes the three orientations.
    """

    kind: str  # "R1" | "R2" | "R3"
    pos: tuple[Vertex, Vertex]
    neg: tuple[Vertex, Vertex]

    @property
    def vertices(self) -> tuple[Vertex, Vertex, Vertex, Vertex]:
        return self.pos + self.neg

    def holds(self, label) -> bool:
        b, c = self.pos
        a, d = self.neg
        return label[b] + label[c] >= label[a] + label[d]


def rhombus_constraints(n: int) -> list[RhombusConstraint]:
    """All 3*n*(n-1)/2 rhombus constraints for size n."""
    if n < 2:
        raise ValueError("hive size must be >= 2")
    out = []
    for i in range(1, n):
        for j in range(i):
            # shared edge inside row i
            out.append(RhombusConstraint("R1", ((i, j), (i, j + 1)), ((i - 1, j), (i + 1, j + 1))))
            # shared edge between (i, j) and (i+1, j+1)
            out.append(RhombusConstraint("R3", ((i, j), (i + 1, j + 1)), ((i + 1, j), (i, j + 1))))
        for j in range(1, i + 1):
            # shared edge between (i, j) and (i+1, j)
            out.append(RhombusConstraint("R2", ((i, j), (i + 1, j)), ((i, j - 1), (i + 1, j + 1))))
    return out


def hive_boundary(lam: Partition, mu: Partition, nu: Partition) -> list[list[int | None]]:
    """Boundary skeleton: rows apex-first, interior vertices set to None."""
    n = _common_rank(lam, mu, nu)
    if nu.size != lam.size + mu.size:
        raise ValueError(f"unbalanced triple: |nu|={nu.size} != |lam|+|mu|={lam.size + mu.size}")
    rows: list[list[int | None]] = [[None] * (i + 1) for i in range(n + 1)]
    acc = 0
    for i in range(n + 1):
        rows[i][0] = acc if i == 0 else rows[i - 1][0] + lam[i - 1]
    acc = 0
    for i in range(n + 1):
        rows[i][i] = acc if i == 0 else rows[i - 1][i - 1] + nu[i - 1]
    for j in range(1, n):
        rows[n][j] = rows[n][j - 1] + mu[j - 1]
    return rows


@dataclass(frozen=True)
class Hive:
    """A fully labeled hive, stored as rows from the apex down."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def __getitem__(self, v: Vertex) -> int:
        return self.rows[v[0]][v[1]]

    def is_valid(self) -> bool:
        return all(c.holds(self) for c in rhombus_constraints(self.n))

    def boundary(self) -> tuple[Partition, Partition, Partition]:
        """Recover (lam, mu, nu) from the boundary partial sums."""
        n = self.n
        lam = tuple(self.rows[i][0] - self.rows[i - 1][0] for i in range(1, n + 1))
        nu = tuple(self.rows[i][i] - self.rows[i - 1][i - 1] for i in range(1, n + 1))
        mu = tuple(self.rows[n][j] - self.rows[n][j - 1] for j in range(1, n + 1))
        return Partition(lam), Partition(mu), Partition(nu)


def _common_rank(*parts: Partition) -> int:
    n = parts[0].n
    for p in parts[1:]:
        if p.n != n:
            raise ValueError("rank mismatch")
    return n


def _search_plan(n: int):
    """Interior vertices in row-major order plus, per vertex, the bound rules
    from every constraint whose other three vertices are set by then."""
    interior = [(i, j) for i in range(2, n) for j in range(1, i)]
    order = {v: t for t, v in enumerate(interior)}
    rules: list[list[tuple[bool, Vertex, Vertex, Vertex]]] = [[] for _ in interior]
    for c in rhombus_constraints(n):
        ranked = [(order.get(v, -1), v) for v in c.vertices]
        last = max(ranked)
        if last[0] < 0:
            continue  # pure-boundary constraint, checked once up front
        v = last[1]
        b, cc = c.pos
        a, d = c.neg
        if v == b or v == cc:
            other = cc if v == b else b
            rules[last[0]].append((True, a, d, other))  # v >= a + d - other
        else:
            other = d if v == a else a
            rules[last[0]].append((False, b, cc, other))  # v <= b + c - other
    boundary_only = [
        c for c in rhombus_constraints(n) if all(v not in order for v in c.vertices)
    ]
    return interior, rules, boundary_only


_PLAN_CACHE: dict[int, tuple] = {}


def _plan(n: int):
    if n not in _PLAN_CACHE:
        _PLAN_CACHE[n] = _search_plan(n)
    return _PLAN_CACHE[n]


def _count(lam: Partition, mu: Partition, nu: Partition, collect: list | None):
    n = lam.n
    if nu.size != lam.size + mu.size:
        return 0
    if n == 1:
        return 1
    rows = hive_boundary(lam, mu, nu)
    interior, rules, boundary_only = _plan(n)
    label = {}
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x is not None:
                label[(i, j)] = x
    if not all(c.holds(label) for c in boundary_only):
        return 0

    last = len(interior) - 1

    def rec(t: int) -> int:
        lo, hi = None, None
        for is_lower, u, w, other in rules[t]:
            bound = label[u] + label[w] - label[other]
            if is_lower:
                lo = bound if lo is None or bound > lo else lo
            else:
                hi = bound if hi is None or bound < hi else hi
        if lo is None or hi is None:
            raise RuntimeError("interior vertex with a one-sided bound; search plan is broken")
        if lo > hi:
            return 0
        if t == last and collect is None:
            return hi - lo + 1
        v = interior[t]
        total = 0
        for x in range(lo, hi + 1):
            label[v] = x
            if t == last:
                total += 1
                if collect is not None:
                    full = [list(row) for row in rows]
                    for (i, j), val in label.items():
                        full[i][j] = val
                    collect.append(Hive(tuple(tuple(r) for r in full)))
            else:
                total += rec(t + 1)
        del label[v]
        return total

    if not interior:
        if collect is not None:
            collect.append(Hive(tuple(tuple(r) for r in rows)))
        return 1
    return rec(0)


def count_hives(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient c_{lam,mu}^nu by exhaustive
    integer-point enumeration over the hive polytope.

    Returns 0 immediately on unbalanced input.
    """
    _common_rank(lam, mu, nu)
    return _count(lam, mu, nu, None)


def enumerate_hives(lam: Partition, mu: Partition, nu: Partition) -> list[Hive]:
    """Materialize every hive with the given boundary."""
    _common_rank(lam, mu, nu)
    out: list[Hive] = []
    _count(lam, mu, nu, out)
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

    lam4 = Partition((lam[0], lam[1], lam[1], 0))
    mu4 = Partition((mu[0], mu[1], mu[1], 0))
    nu4 = Partition((nu[0], nu[1], nu[n - 2], nu[n - 1]))
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
