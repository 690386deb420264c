"""Self-test of the benchmark at tiny sizes; it takes about half a minute.

    python3 perfbench/selftest.py

It checks that
- every metric BENCHMARK.json names is emitted, with its unit, for every
  workload, with and without tracing, and for `--workload all`;
- a corrupted output is counted as a failed call;
- piecewise-verify makes no hive calls;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits nonzero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run
import workloads

SEED = 3


def bench(workload: str, trace: int, cwd=run.ROOT, script=run.HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, out
    return out


def check_metrics(spec: dict) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in workloads.WORKLOADS:
            metrics = result(workload, trace)["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            assert got == want, f"{workload} --trace {trace}: {set(got) ^ set(want)}"
            if workload == "piecewise-verify" and trace:
                assert metrics["hive.calls"]["value"] == 0, metrics["hive.calls"]
        print(f"ok: {group} metrics emitted with their units on every workload")
    metrics = result("all", 0)["metrics"]
    assert set(metrics) == {f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in spec["end_to_end"]}
    print("ok: --workload all reports every workload")


def _corrupt(workload: str, out: str) -> str:
    if workload == "multiset-hive":
        doc = json.loads(out)
        value = next(iter(doc["multiset"]))
        doc["multiset"][value] += 1
        return json.dumps(doc, sort_keys=True)
    if workload == "sweep-conj1":
        return out.replace('"status": "PASS"', '"status": "FAIL"', 1)
    return out.replace("OK:", "MISMATCH:")


def check_corruption() -> None:
    for workload in workloads.WORKLOADS:
        argvs = workloads.calls(workload, SEED, tiny=True)
        want = workloads.expected(workload, SEED, tiny=True)
        clean = run.run_pass(workload, SEED, True)
        assert run.count_failures(workload, argvs, [clean], want)[1] == 0
        bad = copy.deepcopy(clean)
        bad["calls"][0]["out"] = _corrupt(workload, bad["calls"][0]["out"])
        assert bad["calls"][0]["out"] != clean["calls"][0]["out"]
        attempted, failed, _ = run.count_failures(workload, argvs, [bad], want)
        assert (attempted, failed) == (len(argvs), 1), (workload, attempted, failed)
        # A later pass that prints something else fails too, even where no check looks.
        drift = copy.deepcopy(clean)
        drift["calls"][-1]["out"] += " "
        assert run.count_failures(workload, argvs, [clean, drift], want)[1] == 1, workload
    print("ok: corrupted and drifting outputs count as failed calls")


def check_bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench("sweep-conj1", 0, cwd=bare, script=bare / run.HERE.name / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok: without the program the benchmark fails and prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.build()
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    check_metrics(spec)
    check_corruption()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
