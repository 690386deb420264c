"""The lrhive benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  NAME is one of multiset-hive,
sweep-conj1, piecewise-verify, or `all` for the three in turn.

Every pass runs one workload's `lrhive.cli.main` calls once, in a fresh
single-threaded interpreter (perfbench/worker.py), one pass at a time.  A
pass never follows an earlier pass over the same inputs in the same process,
so no in-process cache the program may grow can make a timed pass free.
Passes repeat until S seconds are used (at least three).  Each call's time
is the fastest of its passes, and `wall_s` is the sum of those times;
`item_p50_ms` and `item_tail_ms` are the median and the tail over the calls.
Set-up is timed in every pass and in set-up-only processes spread over the
run, and `setup_s` is the fastest.  The fastest, not the median, because on
the shared 2-core machine the benchmark was built on, one sweep-conj1 pass
varied by up to 2.4x within a run as other tenants came and went: over ten
runs the median pass spread by 38-41 % (interquartile range over median)
and the fastest by 13 %.  The slow passes measure the neighbours, not lrhive.

All outputs are checked after the timed passes.  A call fails if it raises,
exits nonzero, gives a wrong answer, or prints something other than what the
first pass printed; the failures are reported as fail_frac, and in the
result as `failed` out of `attempted`.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
perfbench/tracing.py, asserting that the traced passes' counters repeat
exactly; the spans of the last traced pass go to .bench_build/perfbench/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads
from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
MIN_PASSES = 3
SETUP_SAMPLES = 15
PASS_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms",
                    "peak_rss_mib": "MiB"}


def build() -> None:
    """Compile the checkout's lrhive to bytecode, as an install does, so no
    timed import pays for compiling, and make it importable for the checks."""
    package = ROOT / "src" / "lrhive"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of an lrhive checkout")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(package)], check=True,
                   stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
    sys.path.insert(0, str(package.parent))


def run_pass(workload: str, seed: int, tiny: bool, *extra: str) -> dict:
    """Start worker.py, wait for it, and return the JSON it printed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile_ranks(n: int) -> tuple[int, int]:
    """1-based ranks of the median and of the tail: the highest rank with at
    least ten samples beyond it, or the largest sample when there are fewer."""
    return math.ceil(n / 2), n - 10 if n > 10 else n


def count_failures(workload: str, argvs, passes, want) -> tuple[int, int, dict]:
    """(attempted, failed, reason -> count) over every call of every pass."""
    attempted, failed, reasons = 0, 0, {}
    for p in passes:
        for i, (argv, call) in enumerate(zip(argvs, p["calls"])):
            attempted += 1
            why = workloads.check(workload, argv, call["rc"], call["out"], want[i])
            if why is None and call["out"] != passes[0]["calls"][i]["out"]:
                why = "output differs from the first pass"
            if why:
                failed += 1
                reasons[why] = reasons.get(why, 0) + 1
    return attempted, failed, reasons


def fastest_calls(passes: list[dict]) -> list[float]:
    """Each call's fastest time over the passes, in call order."""
    return [min(p["item_s"][i] for p in passes) for i in range(len(passes[0]["item_s"]))]


def end_to_end(workload: str, passes: list[dict], setups: list[float]) -> dict:
    items = sorted(fastest_calls(passes))
    p50, tail = percentile_ranks(len(items))
    print(f"{workload}: {len(passes)} passes, {len(setups)} set-ups; item latency is each call's fastest pass; "
          f"item_p50_ms is rank {p50} and item_tail_ms rank {tail} "
          f"(p{100 * tail / len(items):.1f}) of {len(items)} items")
    return {
        "setup_s": min(setups),
        "wall_s": sum(items),
        "item_p50_ms": items[p50 - 1] * 1000,
        "item_tail_ms": items[tail - 1] * 1000,
        "peak_rss_mib": median(p["peak_rss_mib"] for p in passes),
    }


def per_layer(workload: str, passes: list[dict], traced: list[dict], canary: dict | None) -> tuple[dict, bool]:
    """(metrics, whether the traced passes' counters repeated exactly).

    `canary` holds the seed code's counters; a difference is reported, not
    failed, since a change may remove work on purpose.
    """
    counters = traced[0]["counters"]
    repeat = all(t["counters"] == counters for t in traced[1:])
    if not repeat:
        diff = {k: [t["counters"][k] for t in traced] for k in counters
                if len({t["counters"][k] for t in traced}) > 1}
        print(f"{workload}: counters differ between traced passes: {diff}")
    if canary:
        moved = {k: (v, counters[k]) for k, v in canary.items() if counters[k] != v}
        print(f"{workload}: canary: " + (f"moved from the seed code's counts: {moved}" if moved
                                          else "all counters equal the seed code's counts"))
    metrics = dict(counters)
    for name in traced[0]["times"]:
        metrics[name] = min(t["times"][name] for t in traced)
    metrics["trace.overhead_s"] = sum(fastest_calls(traced)) - sum(fastest_calls(passes))
    return metrics, repeat


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run the passes of one workload, check them, and return its result."""
    argvs = workloads.calls(workload, seed, tiny)
    begin = time.monotonic()
    passes, traced, setups, took = [], [], [], []
    spans = OUT_DIR / f"spans-{workload}.tsv"
    while len(passes) < MIN_PASSES or time.monotonic() + median(took) < begin + seconds:
        start = time.monotonic()
        passes.append(run_pass(workload, seed, tiny))
        if trace:
            traced.append(run_pass(workload, seed, tiny, "--trace", str(spans)))
        else:
            setups.append(passes[-1]["setup_s"])
            share = (time.monotonic() - begin) / seconds if seconds else 1
            while len(setups) < SETUP_SAMPLES * min(share, 1):
                setups.append(run_pass(workload, seed, tiny, "--setup-only")["setup_s"])
        took.append(time.monotonic() - start)
    want = workloads.expected(workload, seed, tiny)
    attempted, failed, reasons = count_failures(workload, argvs, passes + traced, want)
    print(f"{workload}: fail_frac {failed / attempted:.4f} ({failed} of {attempted} calls failed)"
          + (f": {reasons}" if reasons else ""))
    correct = failed == 0
    if trace:
        canary = None if tiny else json.loads((HERE / "meta.json").read_text())["canary"].get(workload)
        metrics, repeat = per_layer(workload, passes, traced, canary)
        correct = correct and repeat
        print(f"{workload}: spans of the last traced pass in {spans}")
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_pass(workload, seed, tiny, "--setup-only")["setup_s"])
        metrics = end_to_end(workload, passes, setups)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{workload}: {name} = {metrics[name]:.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args()
    build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace), args.tiny) for w in names}
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{w}.{k}" if prefix else k): {"value": r["metrics"][k], "unit": units[k]}
                    for w, r in results.items() for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
