"""Closed-form coefficient formulas.

Covers the rank-3 interval formula, with its 18-inequality threshold test
and the whole rank-3 decomposition read from it in one pass
(``gl3_expansion``), the near-rectangular stability formula for rank >= 4, and the isotypic /
self-dual component counts for the self-dual family (2k, k^{n-2}, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import Partition, is_near_rectangular, padded


@dataclass(frozen=True)
class IntegerInterval:
    lo: int
    hi: int

    @property
    def cardinality(self) -> int:
        return max(0, self.hi - self.lo + 1)


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


def gl3_interval(lam: Partition, mu: Partition, nu: Partition) -> IntegerInterval:
    """The interval whose cardinality is c_{lam,mu}^nu at rank 3."""
    _require_reduced_rank3(lam, mu, nu)
    return IntegerInterval(*_gl3_bounds(lam[0], lam[1], mu[0], mu[1], *nu.parts))


def gl3_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c_{lam,mu}^nu at rank 3 with lam_3 = mu_3 = 0."""
    interval = gl3_interval(lam, mu, nu)  # validates the input
    return interval.cardinality if nu.size == lam.size + mu.size else 0


def _gl3_counts(lam: Partition, mu: Partition) -> dict[tuple[int, int, int], int]:
    """``gl3_expansion`` keyed by the parts of nu, for callers that read only
    the coefficients."""
    if lam.n != mu.n:
        raise ValueError("rank mismatch")
    if lam.n != 3:
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


def gl3_expansion(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Every nu with c_{lam,mu}^nu > 0 at rank 3, mapped to that coefficient.

    Rank 3's counterpart of ``product.lr_expansion``: shift out
    lam_3 + mu_3, then walk nu_1 over [max(lam_1, mu_1), lam_1 + mu_1] and
    nu_2 downward while nu_3 <= nu_2, and keep each nonempty interval's
    cardinality: O(1) per candidate nu.
    """
    return {Partition(nu): c for nu, c in _gl3_counts(lam, mu).items()}


def gl3_threshold_forms(lam: Partition, mu: Partition, nu: Partition) -> list[int]:
    """The 18 linear forms whose simultaneous nonnegativity at offset -c
    characterizes c_{lam,mu}^nu > c."""
    l1, l2 = lam[0], lam[1]
    m1, m2 = mu[0], mu[1]
    n1, n2, n3 = nu.parts
    return [
        l1 - l2,
        l2,
        m1 - m2,
        m2,
        n1 - n2,
        n2 - n3,
        l1 + m1 - n1,
        l1 + m1 - n2 - n3,
        l1 + m2 - n2,
        l1 + l2 + m1 - n1 - n3,
        l1 - n3,
        l1 + l2 + m2 - n2 - n3,
        l2 + m1 - n2,
        l1 + m1 + m2 - n1 - n3,
        m1 - n3,
        l2 + m1 + m2 - n2 - n3,
        l2 + m2 - n3,
        l1 + l2 + m1 + m2 - n1 - n2,
    ]


def gl3_exceeds(lam: Partition, mu: Partition, nu: Partition, c: int) -> bool:
    """True iff c_{lam,mu}^nu > c, decided by the 18 threshold inequalities."""
    _require_reduced_rank3(lam, mu, nu)
    if c < 0:
        raise ValueError("threshold must be nonnegative")
    if nu.size != lam.size + mu.size:
        return False
    return all(form - c >= 0 for form in gl3_threshold_forms(lam, mu, nu))


def _require_nr_pair(lam: Partition, mu: Partition):
    n = lam.n
    if mu.n != n:
        raise ValueError("rank mismatch")
    if n < 4:
        raise ValueError("rank must be >= 4")
    if not (is_near_rectangular(lam) and is_near_rectangular(mu)):
        raise ValueError("lam and mu must be near-rectangular")
    if lam[n - 1] != 0 or mu[n - 1] != 0:
        raise ValueError("lam and mu must have last part 0 (bar-reduce first)")


def nr_interval(lam: Partition, mu: Partition, nu: Partition) -> IntegerInterval:
    l1, l2 = lam[0], lam[1]
    m1, m2 = mu[0], mu[1]
    n = lam.n
    n1, n2, nl, nn = nu[0], nu[1], nu[n - 2], nu[n - 1]
    lo = max(0, l2 + m1 - n1, -m2 + nn)
    hi = min(l1 + m1 - n1, l2 + m1 - n2, -l2 - m2 + nl + nn, -m2 + nl)
    return IntegerInterval(lo, hi)


def nr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c_{lam,mu}^nu for near-rectangular lam, mu at rank n >= 4.

    The value is independent of n: zero unless nu has the pinched shape
    nu1, nu2, (lam2+mu2)^{n-4}, nu_{n-1}, nu_n with
    nu2 >= lam2+mu2 >= nu_{n-1}, else an interval cardinality.
    """
    _require_nr_pair(lam, mu)
    n = lam.n
    if nu.n != n:
        raise ValueError("rank mismatch")
    if nu.size != lam.size + mu.size:
        return 0
    mid = lam[1] + mu[1]
    if any(nu[i] != mid for i in range(2, n - 2)):
        return 0
    if not (nu[1] >= mid >= nu[n - 2]):
        return 0
    return nr_interval(lam, mu, nu).cardinality


def nr_support(lam: Partition, mu: Partition) -> list[tuple[Partition, int]]:
    """All nu with positive coefficient for near-rectangular lam, mu, with
    the coefficient; scans the constrained shape directly."""
    _require_nr_pair(lam, mu)
    n = lam.n
    mid = lam[1] + mu[1]
    free_sum = lam[0] + 2 * lam[1] + mu[0] + 2 * mu[1]  # nu1+nu2+nu_{n-1}+nu_n
    top = lam[0] + mu[0]
    out = []
    for n1 in range(top, mid - 1, -1):
        for n2 in range(min(n1, free_sum - n1), mid - 1, -1):
            for nl in range(mid, -1, -1):
                nn = free_sum - n1 - n2 - nl
                if nn < 0 or nn > nl:
                    continue
                nu = padded((n1, n2), mid, (nl, nn), n)
                coeff = nr_coefficient(lam, mu, nu)
                if coeff > 0:
                    out.append((nu, coeff))
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
