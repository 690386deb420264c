"""Regenerate perfbench/pairs.json, the pool the multiset-hive workload draws from.

    PYTHONPATH=src python3 perfbench/make_pairs.py

The pool holds random rank-5..7 pairs (lambda, mu), grouped into strata of
similar `lrhive multiset` cost.  A run draws one pair per stratum, so every
seed gives different pairs but nearly the same total work, which keeps
`wall_s` comparable across seeds.

Generation has two steps.  Random pairs fill cost bands until each band
holds PER_STRATUM pairs per stratum; then every pair is timed again, in
ROUNDS sweeps over the whole pool so that each pair sees several states of a
shared machine, and the pool, sorted by its fastest time, is cut into strata
of PER_STRATUM consecutive pairs.  The costs only sort pairs into strata.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

from lrhive.partitions import Partition, bar_reduce
from lrhive.piecewise import multiplicity_multiset

from workloads import ANCHORS, multiset_pair_ok

# (low ms, high ms, strata): cheap pairs dominate the count, dear ones the time.
BANDS = ((10.0, 80.0, 34), (80.0, 400.0, 14))
PER_STRATUM = 5
ROUNDS = 5
TIME_LIMIT_S = 1500


def _random_pair(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    n = rng.choice((5, 6, 7))
    top = rng.randint(3, 7 if n < 7 else 6)

    def part():
        return tuple(sorted((rng.randint(0, top) for _ in range(n - 1)), reverse=True)) + (0,)

    lam, mu = part(), part()
    if rng.random() < 0.25:  # lambda_n + mu_n > 0 exercises the bar-reduction shift
        shift = rng.randint(1, 2)
        if rng.random() < 0.5:
            lam = tuple(p + shift for p in lam)
        else:
            mu = tuple(p + shift for p in mu)
    return lam, mu


def _cost_ms(lam, mu, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        multiplicity_multiset(Partition(lam), Partition(mu))
        best = min(best, time.perf_counter() - start)
    return best * 1000


def _stratum(cost_ms: float) -> int | None:
    base = 0
    for low, high, count in BANDS:
        if low <= cost_ms < high:
            return base + int(count * math.log(cost_ms / low) / math.log(high / low))
        base += count
    return None


def _reduced_key(lam, mu):
    pair = sorted((bar_reduce(Partition(lam)).parts, bar_reduce(Partition(mu)).parts))
    return tuple(pair)


def regroup(pool: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> list[list[dict]]:
    """Strata of PER_STRATUM pairs of consecutive cost, cheapest first."""
    cost = [math.inf] * len(pool)
    for _ in range(ROUNDS):
        for i, (lam, mu) in enumerate(pool):
            cost[i] = min(cost[i], _cost_ms(lam, mu, 1))
    ranked = sorted(range(len(pool)), key=cost.__getitem__)
    entries = [{"lambda": list(pool[i][0]), "mu": list(pool[i][1]), "cost_ms": round(cost[i], 1)}
               for i in ranked]
    return [entries[k:k + PER_STRATUM] for k in range(0, len(entries), PER_STRATUM)]


def main() -> int:
    rng = random.Random(20050987)
    total = sum(count for _, _, count in BANDS)
    strata: list[list[tuple]] = [[] for _ in range(total)]
    seen = {_reduced_key(lam, mu) for lam, mu in ANCHORS}
    deadline = time.monotonic() + TIME_LIMIT_S
    while any(len(s) < PER_STRATUM for s in strata):
        if time.monotonic() > deadline:
            print("time limit reached before every stratum filled", file=sys.stderr)
            return 1
        lam, mu = _random_pair(rng)
        key = _reduced_key(lam, mu)
        if key in seen or not multiset_pair_ok(lam, mu):
            continue
        seen.add(key)
        first = _cost_ms(lam, mu, 1)
        index = _stratum(first)
        if index is None or len(strata[index]) >= PER_STRATUM:
            continue
        cost = _cost_ms(lam, mu, 3)
        index = _stratum(cost)
        if index is None or len(strata[index]) >= PER_STRATUM:
            continue
        strata[index].append((lam, mu))
        print(f"stratum {index:2d}: {lam} x {mu} {cost:.1f} ms", flush=True)
    write(regroup([pair for stratum in strata for pair in stratum]))
    return 0


def write(strata: list[list[dict]]) -> None:
    rows = ",\n".join(f"  {json.dumps(stratum)}" for stratum in strata)
    text = f'{{"bands_ms": {json.dumps(BANDS)},\n "strata": [\n{rows}\n]}}\n'
    Path(__file__).with_name("pairs.json").write_text(text)


if __name__ == "__main__":
    sys.exit(main())
