"""Tests for conjecture checks, the counterexample, and sweeps."""

import concurrent.futures
import hashlib
import json
import os
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from lrhive import verify
from lrhive.partitions import Partition, bar_reduce, dual_star
from lrhive.verify import (
    FAIL,
    PASS,
    SKIP,
    SweepConfig,
    Verdict,
    compare,
    cz_sum_check,
    reproduce_gl5_counterexample,
    stability_check,
    sweep,
    sweep_cases,
)


def test_lambda_dagger_is_dual_star():
    """The comparison partner reads only the differences of lam's parts, so
    a lam with a nonzero last part needs no bar reduction first."""
    assert dual_star(Partition((5, 3, 0))) == Partition((5, 2, 0))
    assert dual_star(Partition((4, 2, 2, 1))) == Partition((3, 2, 2, 0))
    for n in range(1, 7):  # all 1,715 partitions with n <= 6 and parts <= 6
        for parts in combinations_with_replacement(range(6, -1, -1), n):
            lam = Partition(parts)
            assert dual_star(lam) == dual_star(bar_reduce(lam)), lam


def test_verdict_requires_witness_on_fail():
    with pytest.raises(ValueError):
        Verdict(FAIL, "conj1", Partition((1, 0)), Partition((1, 0)))


def test_conjecture1_worked_example():
    v = compare("conj1", Partition((5, 3, 0)), Partition((6, 3, 0)))
    assert v.status == PASS
    assert v.left.as_dict() == {1: 11, 2: 7, 3: 3} == v.right.as_dict()


def test_conjecture1_trivial_and_rank4():
    v = compare("conj1", Partition((0, 0, 0)), Partition((4, 2, 0)))
    assert v.status == PASS and v.left.as_dict() == {1: 1}
    assert compare("conj1", Partition((4, 2, 2, 0)), Partition((3, 1, 0, 0))).status == PASS


def test_conjecture1_skips_non_near_rectangular():
    v = compare("conj1", Partition((3, 3, 2, 0, 0)), Partition((1, 0, 0, 0, 0)))
    assert v.status == SKIP and "near-rectangular" in v.witness


def test_conjecture2():
    assert compare("conj2", Partition((4, 2, 2, 0)), Partition((2, 1, 1, 0))).status == PASS
    v = compare("conj2", Partition((5, 3, 3, 0)), Partition((2, 1, 1, 0)))
    assert v.status == PASS and v.left == v.right
    assert compare("conj2", Partition((0,) * 5), Partition((1, 0, 0, 0, 0))).left == 1


def test_cz_sum():
    v = cz_sum_check(Partition((5, 3, 0)), Partition((6, 3, 0)))
    assert v.status == PASS and v.left == 34
    # holds with no near-rectangular hypothesis
    assert cz_sum_check(Partition((3, 3, 2, 0, 0)), Partition((4, 4, 1, 0, 0))).status == PASS
    assert cz_sum_check(Partition((0, 0)), Partition((0, 0))).left == 1


def test_gl5_counterexample():
    v = reproduce_gl5_counterexample()
    assert v.status == PASS
    assert (v.left, v.right) == (34, 33)
    # conjecture 2 itself fails on the pair when forced to run
    forced = compare("conj2", Partition((3, 3, 2, 0, 0)), Partition((4, 4, 1, 0, 0)),
                     require_near_rectangular=False)
    assert forced.status == FAIL


def test_stability_check():
    assert stability_check(2, 1, 2, 1, (4, 2, 2, 0), (4, 5, 6)).status == PASS
    assert stability_check(1, 0, 0, 0, (1, 0, 0, 0), (4, 5)).status == PASS
    with pytest.raises(ValueError):
        stability_check(1, 2, 1, 0, (2, 1, 1, 0), (4,))  # lam1 < lam2
    with pytest.raises(ValueError):
        stability_check(2, 1, 2, 1, (4, 2, 2, 0), (3, 4))  # rank below 4


def test_sweep_config_rejects_unknown_keys():
    cfg = SweepConfig(n=4, max_nr=1, max_mu_size=2, check="conj1").as_json()
    for key in ("bogus", "include_timing"):
        with pytest.raises(ValueError, match=repr(key)):
            SweepConfig.from_json({**cfg, key: 1})


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(n=4, max_nr=2, max_mu_size=4, check="bogus")
    with pytest.raises(ValueError):
        SweepConfig(n=4, max_nr=-1, max_mu_size=4, check="conj1")
    with pytest.raises(ValueError, match="missing .*'max_nr', 'max_mu_size', 'check'"):
        SweepConfig.from_json({"n": 4})
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        SweepConfig(n=4, max_nr=1, max_mu_size=2, check="conj1", jobs=0)
    with pytest.raises(ValueError, match="give output_path too"):
        SweepConfig(n=4, max_nr=1, max_mu_size=2, check="conj1", output_format="csv")
    cfg = SweepConfig(n=4, max_nr=1, max_mu_size=2, check="conj1")
    assert SweepConfig.from_json(cfg.as_json()) == cfg  # "output_format": "json", no path


def test_expected_fail_lambdas_must_be_partitions():
    base = dict(n=4, max_nr=0, max_mu_size=1, check="conj1")
    for bad in ([1, 2, 3, 4, 5], [2, 1, 0, -1], []):
        with pytest.raises(ValueError, match="expected_fail_lambdas: "):
            SweepConfig.from_json({**base, "expected_fail_lambdas": [[3, 1, 0, 0], bad]})
    # another rank is allowed: it can match an extra_cases lambda
    cfg = SweepConfig(**base, expected_fail_lambdas=((3, 3, 2, 0, 0),))
    assert SweepConfig.from_json(cfg.as_json()) == cfg


def test_sweep_cases_deterministic():
    cfg = SweepConfig(n=4, max_nr=1, max_mu_size=2, check="conj1")
    assert sweep_cases(cfg) == sweep_cases(cfg)
    for lam, mu in sweep_cases(cfg):
        assert lam.n == mu.n == 4


def test_sweep_all_pass_small():
    report = sweep(SweepConfig(n=4, max_nr=2, max_mu_size=4, check="conj1"))
    assert report.fails == 0 and report.passes == len(report.verdicts)
    data = report.as_json()  # deterministic output by default
    assert data["summary"]["elapsed_micros"] == 0
    assert all(case["micros"] == 0 for case in data["cases"])


def test_sweep_reports_are_byte_identical():
    cfg = SweepConfig(n=4, max_nr=1, max_mu_size=3, check="cz_sum")
    a = sweep(cfg, version="x").to_json_text()
    b = sweep(cfg, version="x").to_json_text()
    assert a == b
    parsed = json.loads(a)
    assert parsed["summary"]["cases"] == len(parsed["cases"])


def test_sweep_injected_counterexample():
    cfg = SweepConfig(
        n=5, max_nr=1, max_mu_size=2, check="conj2",
        extra_cases=(((3, 3, 2, 0, 0), (4, 4, 1, 0, 0)),),
        expected_fail_lambdas=((3, 3, 2, 0, 0),),
    )
    report = sweep(cfg)
    assert report.fails == 1
    failing = [v for v in report.verdicts if v.status == FAIL]
    assert (failing[0].left, failing[0].right) == (34, 33)
    assert report.unexpected_fails == 0


INJECTED = (((3, 3, 2, 0, 0), (4, 4, 1, 0, 0)),)  # the rank-5 counterexample pair


def test_sweep_parallel_matches_serial():
    for base in (dict(n=4, max_nr=1, max_mu_size=3, check="conj1"),
                 dict(n=5, max_nr=1, max_mu_size=2, check="conj2", extra_cases=INJECTED)):
        serial = sweep(SweepConfig(**base))
        parallel = sweep(SweepConfig(**base, jobs=2))
        assert [v.as_json() for v in serial.verdicts] == [v.as_json() for v in parallel.verdicts]


def test_sweep_caps_workers(monkeypatch):
    """A huge --jobs forks no more workers than there are pairs or CPUs, runs
    serially when that is one, and keeps jobs in the report.  The stand-in
    pool records max_workers and maps in this process, so nothing forks."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    one_pair = dict(n=4, max_nr=0, max_mu_size=0, check="conj1")
    report = sweep(SweepConfig(**one_pair, jobs=5000))
    assert made == [] and json.loads(report.to_json_text())["config"]["jobs"] == 5000
    grid = dict(n=4, max_nr=1, max_mu_size=2, check="conj1")  # 16 distinct pairs
    serial = sweep(SweepConfig(**grid)).verdicts
    for cpus, expected in ((64, [16]), (3, [3]), (None, []), (1, [])):
        made.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert sweep(SweepConfig(**grid, jobs=5000)).verdicts == serial
        assert made == expected


def test_sweep_output_files(tmp_path):
    for fmt in ("json", "csv"):
        path = tmp_path / f"report.{fmt}"
        sweep(SweepConfig(n=4, max_nr=1, max_mu_size=2, check="conj1",
                          output_path=str(path), output_format=fmt))
        text = path.read_text()
        if fmt == "json":
            data = json.loads(text)
            assert data["summary"]["fails"] == 0
        else:
            assert text.splitlines()[0].startswith("lambda,mu,n,check,status")


# sha256 of to_json_text() and to_csv_text(); report bytes change only on purpose.
PINNED_REPORTS = [
    (dict(n=4, max_nr=1, max_mu_size=3, check="conj1"),
     "2b335166b0d6f919615cd207321c4f7393c92d77c812b230804635f12397d757",
     "6e81190fe24c41bb8780b769588dfd28213d9893730ddc4c8156410165779387"),
    (dict(n=4, max_nr=1, max_mu_size=3, check="conj2"),
     "58b3839a672b75ded79b90e10c54b0cff9ab3eb10ac4746f0c21d4d679fbe6a5",
     "35c02db9c92e802d45b8f09566ac4d5d411b6892a45f824504ca14c30bc9d1ac"),
    (dict(n=4, max_nr=1, max_mu_size=3, check="cz_sum"),
     "d2f1017b9be5e7e357a12340d99ec2ebb71f970c512821fc0bd81037b56fb038",
     "5859918078f0cbf4a3a9ea8aa7e0078fc50e8a7c165f122aa4ab8fb20c9f79a9"),
    (dict(n=5, max_nr=1, max_mu_size=2, check="conj1", extra_cases=INJECTED),
     "7e179eb272e4314b2a100ffbf7c4991699e441906652a5f67d5536d688da9fb9",
     "f3dc8ecdd2df7dc1bb986da493f1248b40cc875864060464cbf58d61686fa18e"),
    (dict(n=5, max_nr=1, max_mu_size=2, check="conj2", extra_cases=INJECTED),
     "e89050dfd57918337a4bb44cb3033d747764e0825f81d66f7f87d9c26448de2b",
     "8c178e235ab453d10686806abe8f91f2e5359a13a86dd804f66ab6c36a366382"),
]


@pytest.mark.parametrize("kwargs, json_sha, csv_sha", PINNED_REPORTS)
def test_sweep_report_bytes_pinned(kwargs, json_sha, csv_sha):
    report = sweep(SweepConfig(**kwargs))
    assert hashlib.sha256(report.to_json_text().encode()).hexdigest() == json_sha
    assert hashlib.sha256(report.to_csv_text().encode()).hexdigest() == csv_sha


@pytest.mark.parametrize("check, grid", [
    *(pytest.param(check, dict(n=5, max_nr=1, max_mu_size=2, extra_cases=INJECTED), id=check)
      for check in ("conj1", "conj2", "cz_sum")),
    # the criterion-11 grids: the sweep's per-nu histograms against the product's
    pytest.param("conj1", dict(n=4, max_nr=3, max_mu_size=8), id="conj1-rank4"),
    pytest.param("conj1", dict(n=5, max_nr=2, max_mu_size=6), id="conj1-rank5"),
])
def test_sweep_verdicts_match_per_case_checks(check, grid):
    cfg = SweepConfig(check=check, **grid)
    assert list(sweep(cfg).verdicts) == [compare(check, lam, mu, require_near_rectangular=False)
                                         for lam, mu in sweep_cases(cfg)]


def test_sweep_computes_each_distinct_histogram_once(monkeypatch):
    calls = Counter()
    computed = verify.multiplicity_multiset

    def counting(lam, mu, *method):
        calls[lam, mu] += 1
        return computed(lam, mu, *method)

    monkeypatch.setattr(verify, "multiplicity_multiset", counting)
    cfg = SweepConfig(n=4, max_nr=2, max_mu_size=3, check="conj1")
    cases = sweep_cases(cfg)
    assert sweep(cfg).passes == len(cases)
    distinct = {pair for lam, mu in cases for pair in ((lam, mu), (dual_star(lam), mu))}
    assert calls == Counter(distinct)
    # lam-dagger of a grid point is a grid point: half of the 2 * cases pairs repeat
    assert len(distinct) == len(cases)


def test_sweep_builds_each_dagger_once(monkeypatch):
    """lam-dagger is built once per distinct lam of the case list, injected
    cases included, and serves both the pair list and the comparisons."""
    built = Counter()
    dagger = verify.dual_star
    monkeypatch.setattr(verify, "dual_star", lambda lam: built.update([lam]) or dagger(lam))
    cfg = SweepConfig(n=5, max_nr=1, max_mu_size=2, check="conj1", extra_cases=INJECTED)
    cases = sweep_cases(cfg)
    assert len(sweep(cfg).verdicts) == len(cases)
    assert built == Counter({lam for lam, _ in cases})
    assert len(built) < len(cases)
