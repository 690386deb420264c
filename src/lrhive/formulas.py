"""Closed-form coefficient formulas.

Covers the rank-3 interval formula, with the threshold test (each upper
bound minus each lower bound >= c) and the whole rank-3 decomposition read
from the same bounds in one pass (the rank-3 case of
``product.lr_expansion``), the near-rectangular stability formula for
rank >= 4, and the isotypic / self-dual component counts for the self-dual
family (2k, k^{n-2}, 0).
"""

from __future__ import annotations

from .partitions import Partition, common_rank, is_near_rectangular, padded


def _require_reduced_rank3(lam: Partition, mu: Partition, nu: Partition):
    if not (lam.n == mu.n == nu.n == 3):
        raise ValueError("rank must be 3")
    if lam[2] != 0 or mu[2] != 0:
        raise ValueError("lam and mu must have last part 0 (bar-reduce first)")


def _gl3_bounds(l1: int, l2: int, m1: int, m2: int, n1: int, n2: int, n3: int) -> tuple[int, int]:
    """(lo, hi) of the rank-3 interval for lam = (l1, l2, 0), mu = (m1, m2, 0)
    and nu = (n1, n2, n3), on plain ints: the one copy of the formula."""
    lo = max(m1 - l2, m2, n1 - l1, m1 - n3, n2 - l2, m1 + m2 - n2)
    hi = min(m1, n1 - l2, m1 + m2 - n3)
    return lo, hi


def gl3_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c_{lam,mu}^nu at rank 3 with lam_3 = mu_3 = 0: the size of an
    integer interval."""
    _require_reduced_rank3(lam, mu, nu)
    if nu.size != lam.size + mu.size:
        return 0
    lo, hi = _gl3_bounds(lam[0], lam[1], mu[0], mu[1], *nu.parts)
    return max(0, hi - lo + 1)


def _gl3_counts(lam: Partition, mu: Partition) -> dict[tuple[int, int, int], int]:
    """Every nu with c_{lam,mu}^nu > 0 at rank 3, keyed by its parts and
    mapped to that coefficient: ``product.lr_expansion`` at rank 3.

    Shift out lam_3 + mu_3, then walk nu_1 over [max(lam_1, mu_1),
    lam_1 + mu_1] and nu_2 downward while nu_3 <= nu_2, and keep each
    nonempty interval's cardinality: O(1) per candidate nu.
    """
    if not lam.n == mu.n == 3:
        raise ValueError("rank must be 3")
    shift = lam[2] + mu[2]
    l1, l2 = lam[0] - lam[2], lam[1] - lam[2]
    m1, m2 = mu[0] - mu[2], mu[1] - mu[2]
    total = l1 + l2 + m1 + m2
    counts = {}
    for n1 in range(max(l1, m1), l1 + m1 + 1):
        for n2 in range(min(n1, total - n1), -1, -1):
            n3 = total - n1 - n2
            if n3 > n2:
                break
            lo, hi = _gl3_bounds(l1, l2, m1, m2, n1, n2, n3)
            if hi >= lo:
                counts[n1 + shift, n2 + shift, n3 + shift] = hi - lo + 1
    return counts


def gl3_exceeds(lam: Partition, mu: Partition, nu: Partition, c: int) -> bool:
    """True iff c_{lam,mu}^nu > c: for c >= 0 that is hi - lo >= c on the
    rank-3 interval, the 18 threshold inequalities "each upper bound minus
    each lower bound >= c"."""
    _require_reduced_rank3(lam, mu, nu)
    if c < 0:
        raise ValueError("threshold must be nonnegative")
    return gl3_coefficient(lam, mu, nu) > c


def _require_nr_pair(lam: Partition, mu: Partition):
    n = common_rank(lam, mu)
    if n < 4:
        raise ValueError("rank must be >= 4")
    if not (is_near_rectangular(lam) and is_near_rectangular(mu)):
        raise ValueError("lam and mu must be near-rectangular")
    if lam[n - 1] != 0 or mu[n - 1] != 0:
        raise ValueError("lam and mu must have last part 0 (bar-reduce first)")


def _nr_bounds(l1: int, l2: int, m1: int, m2: int,
               n1: int, n2: int, nl: int, nn: int) -> tuple[int, int]:
    """(lo, hi) of the near-rectangular interval for lam = (l1, l2^{n-2}, 0),
    mu = (m1, m2^{n-2}, 0) and a pinched nu = (n1, n2, ..., nl, nn), on plain
    ints: the one copy of the formula."""
    lo = max(0, l2 + m1 - n1, nn - m2)
    hi = min(l1 + m1 - n1, l2 + m1 - n2, nl + nn - l2 - m2, nl - m2)
    return lo, hi


def nr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c_{lam,mu}^nu for near-rectangular lam, mu at rank n >= 4.

    The value is independent of n: zero unless nu has the pinched shape
    nu1, nu2, (lam2+mu2)^{n-4}, nu_{n-1}, nu_n with
    nu2 >= lam2+mu2 >= nu_{n-1}, else an interval cardinality.
    """
    _require_nr_pair(lam, mu)
    n = common_rank(lam, nu)
    if nu.size != lam.size + mu.size:
        return 0
    mid = lam[1] + mu[1]
    if any(nu[i] != mid for i in range(2, n - 2)):
        return 0
    if not (nu[1] >= mid >= nu[n - 2]):
        return 0
    lo, hi = _nr_bounds(lam[0], lam[1], mu[0], mu[1], nu[0], nu[1], nu[n - 2], nu[n - 1])
    return max(0, hi - lo + 1)


def nr_support(lam: Partition, mu: Partition) -> list[tuple[Partition, int]]:
    """All nu with positive coefficient for near-rectangular lam, mu, with
    the coefficient; scans the pinched shape directly, on ints, and builds
    a ``Partition`` only for nu with c > 0."""
    _require_nr_pair(lam, mu)
    n = lam.n
    l1, l2, m1, m2 = lam[0], lam[1], mu[0], mu[1]
    mid = l2 + m2
    free_sum = l1 + m1 + 2 * mid  # nu1+nu2+nu_{n-1}+nu_n
    out = []
    for n1 in range(l1 + m1, mid - 1, -1):
        for n2 in range(min(n1, free_sum - n1), mid - 1, -1):
            for nl in range(mid, -1, -1):
                nn = free_sum - n1 - n2 - nl
                if nn < 0 or nn > nl:
                    continue
                lo, hi = _nr_bounds(l1, l2, m1, m2, n1, n2, nl, nn)
                if hi >= lo:
                    out.append((padded((n1, n2), mid, (nl, nn), n), hi - lo + 1))
    return out


def isotypic_count_selfdual_family(k: int, l: int) -> int:
    """Number of distinct isotypic components of
    V((2k) k^{n-2}) (x) V((2l) l^{n-2}), independent of n >= 4."""
    if k < 0 or l < 0:
        raise ValueError("k, l must be nonnegative")
    if l > k:
        k, l = l, k
    if 2 * l <= k:
        return l**3 + 3 * l**2 + 3 * l + 1
    # three times the cubic, so that every coefficient is an integer
    triple = (k**3 - 6 * k**2 * l + 12 * k * l**2 - 5 * l**3
              - 3 * k**2 + 12 * k * l - 3 * l**2 + 2 * k + 5 * l + 3)
    value, rem = divmod(triple, 3)
    if rem or value < 0:
        raise ArithmeticError(f"component count formula gave {triple}/3 at (k,l)=({k},{l})")
    return value


def selfdual_component_count(k: int, l: int) -> int:
    """Number of distinct self-dual isotypic components of the same product."""
    if k < 0 or l < 0:
        raise ValueError("k, l must be nonnegative")
    return (min(k, l) + 1) ** 2
