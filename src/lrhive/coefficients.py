"""Single entry point for computing one Littlewood-Richardson coefficient,
with selectable backend."""

from __future__ import annotations

from .formulas import gl3_coefficient, nr_coefficient
from .hive import count_hives
from .partitions import Partition, bar_reduce, common_rank, is_near_rectangular
from .tableaux import lr_tableaux_count

METHODS = ("auto", "hive", "tableaux", "gl3", "nr")


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition, method: str = "auto") -> int:
    """c_{lam,mu}^nu.

    ``auto`` bar-reduces lam and mu (shifting nu accordingly), then picks the
    fastest applicable closed form, falling back to hive enumeration.  Every
    backend returns 0 on an unbalanced triple (|nu| != |lam| + |mu|).
    """
    common_rank(lam, mu, nu)
    if method == "hive":
        return count_hives(lam, mu, nu)
    if method == "tableaux":
        return lr_tableaux_count(lam, mu, nu)
    if method == "gl3":
        return gl3_coefficient(lam, mu, nu)
    if method == "nr":
        return nr_coefficient(lam, mu, nu)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")

    n = lam.n
    shift = lam[n - 1] + mu[n - 1]
    if shift:
        if nu[n - 1] < shift:
            return 0
        lam, mu = bar_reduce(lam), bar_reduce(mu)
        nu = Partition(tuple(p - shift for p in nu))
    if n == 3:
        return gl3_coefficient(lam, mu, nu)
    if n >= 4 and is_near_rectangular(lam) and is_near_rectangular(mu):
        return nr_coefficient(lam, mu, nu)
    return count_hives(lam, mu, nu)
