"""The three benchmark workloads: the `lrhive` command lines each one runs,
and the checks its outputs must pass.

This module does not import lrhive, so a worker can load it before it starts
timing the import of the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("multiset-hive", "sweep-conj1", "piecewise-verify")

# ROADMAP's baseline pairs: about 1.2 s and 2 s of hive search each.  They
# are in every multiset-hive pass, so the slowest items are the same on
# every seed.
ANCHORS = (
    ((8, 5, 3, 1, 0, 0), (6, 4, 2, 1, 0, 0)),
    ((6, 5, 4, 3, 2, 1, 0), (5, 4, 3, 2, 1, 0, 0)),
)

# (n, max_nr, max_mu, number of cases) of the criterion-11 conj1 grids
SWEEPS = ((4, 3, 8, 848), (5, 2, 6, 261))
TINY_SWEEPS = ((4, 1, 3, 28), (5, 1, 2, 16))
REPRO = ["repro-gl5", "--json"]

VERIFY_RANGES = (("gl3", 5), ("gl4nr2", 3))
TINY_VERIFY_RANGES = (("gl3", 2), ("gl4nr2", 1))

TINY_MULTISET_PAIRS = 3


def multiset_pair_ok(lam, mu) -> bool:
    """Rank 5..7, and not both near-rectangular, so `auto` uses the hive.

    Bar reduction subtracts a constant, so it keeps the middle parts equal or
    unequal; the test can run on the pair as given.
    """
    def near_rectangular(p):
        return len(set(p[1:-1])) <= 1

    def partition(p):
        return all(a >= b for a, b in zip(p, p[1:])) and p[-1] >= 0

    return (5 <= len(lam) == len(mu) <= 7 and partition(lam) and partition(mu)
            and not (near_rectangular(lam) and near_rectangular(mu)))


def multiset_pairs(seed: int, tiny: bool = False) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One pair from each cost stratum of pairs.json, chosen by the seed, then the anchors."""
    strata = json.loads(Path(__file__).with_name("pairs.json").read_text())["strata"]
    rng = random.Random(seed)
    pairs = [tuple(tuple(p) for p in (e["lambda"], e["mu"])) for e in (rng.choice(s) for s in strata)]
    bad = [pair for pair in pairs if not multiset_pair_ok(*pair)]
    if bad:
        raise ValueError(f"pairs.json holds pairs the hive workload must not run: {bad}")
    if tiny:
        return pairs[:TINY_MULTISET_PAIRS]
    pairs += ANCHORS
    return pairs


def _sweep_argv(n, max_nr, max_mu, _cases) -> list[str]:
    return ["sweep", "--n", str(n), "--max-nr", str(max_nr), "--max-mu", str(max_mu),
            "--check", "conj1", "--jobs", "1", "--json"]


def _multiset_argv(lam, mu) -> list[str]:
    return ["multiset", "--lambda", ",".join(map(str, lam)), "--mu", ",".join(map(str, mu)),
            "--n", str(len(lam)), "--json"]


def calls(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The argv of every `lrhive` call in one pass, in order.

    Only multiset-hive depends on the seed; the other two are the fixed
    grids users run.
    """
    if workload == "multiset-hive":
        return [_multiset_argv(lam, mu) for lam, mu in multiset_pairs(seed, tiny)]
    if workload == "sweep-conj1":
        return [*(_sweep_argv(*grid) for grid in (TINY_SWEEPS if tiny else SWEEPS)), REPRO]
    if workload == "piecewise-verify":
        return [["piecewise", "--family", family, "--verify-range", str(bound)]
                for family, bound in (TINY_VERIFY_RANGES if tiny else VERIFY_RANGES)]
    raise ValueError(f"unknown workload {workload!r}")


def expected(workload: str, seed: int, tiny: bool = False) -> list:
    """What each call's output is checked against; multiset-hive needs the
    tableaux oracle, so it imports lrhive and must not run in a timed process."""
    if workload == "multiset-hive":
        from lrhive.partitions import Partition
        from lrhive.piecewise import multiplicity_multiset

        out = []
        for lam, mu in multiset_pairs(seed, tiny):
            ms = multiplicity_multiset(Partition(lam), Partition(mu), method="tableaux")
            out.append({"lambda": list(lam), "mu": list(mu),
                        "multiset": {str(v): k for v, k in ms.counts},
                        "components": ms.components, "mult_sum": ms.mult_sum})
        return out
    if workload == "sweep-conj1":
        return [*(grid[3] for grid in (TINY_SWEEPS if tiny else SWEEPS)), None]
    if workload == "piecewise-verify":
        return [None] * len(TINY_VERIFY_RANGES if tiny else VERIFY_RANGES)
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, argv: list[str], rc, out: str, want) -> str | None:
    """Why one call's result is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    if workload == "multiset-hive":
        try:
            got = json.loads(out)
        except ValueError:
            return "output is not JSON"
        return None if got == want else "histogram differs from the tableaux oracle"
    if workload == "sweep-conj1":
        try:
            report = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if argv[0] == "repro-gl5":
            return None if report.get("status") == "PASS" else "repro-gl5 did not PASS"
        statuses = {case["status"] for case in report.get("cases", [])}
        if len(report.get("cases", [])) != want or report["summary"]["cases"] != want:
            return f"expected {want} cases"
        return None if statuses == {"PASS"} else f"verdicts {sorted(statuses)}, not all PASS"
    if workload == "piecewise-verify":
        return None if out.startswith("OK:") else "no OK: line"
    raise ValueError(f"unknown workload {workload!r}")
