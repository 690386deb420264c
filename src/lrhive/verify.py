"""Conjecture checking, counterexample reproduction, and batch sweeps.

The two conjectures compare the tensor product decompositions of
V(lam) (x) V(mu) and V(lam-dagger) (x) V(mu), where lam-dagger is
dual_star(bar_reduce(lam)): conjecture 1 asserts equal multiplicity
multisets, conjecture 2 only equal component counts, both for
near-rectangular lam.  The sum of multiplicities always agrees,
with no hypothesis on lam.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import MISSING, dataclass, fields
from itertools import repeat
from operator import attrgetter

from .formulas import nr_coefficient
from .hive import count_hives
from .partitions import Partition, bar_reduce, dual_star, is_near_rectangular, padded, partitions_of
from .piecewise import multiplicity_multiset

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass(frozen=True)
class Verdict:
    status: str  # PASS | FAIL | SKIP
    check: str
    lam: Partition
    mu: Partition
    left: object = None
    right: object = None
    witness: str | None = None

    def __post_init__(self):
        if self.status == FAIL and self.witness is None:
            raise ValueError("FAIL verdicts must carry a witness")

    def as_json(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "mu": list(self.mu.parts),
            "n": self.lam.n,
            "check": self.check,
            "status": self.status,
            "left": _summary_json(self.left),
            "right": _summary_json(self.right),
            "witness": self.witness,
            "micros": 0,  # kept so report bytes stay the same
        }


def _summary_json(value):
    if value is None or isinstance(value, int):
        return value
    if hasattr(value, "counts"):  # MultiplicityMultiset, counts sorted by value
        return {str(k): v for k, v in value.counts}
    return str(value)


def lambda_dagger(lam: Partition) -> Partition:
    """The comparison partner dual_star(bar_reduce(lam))."""
    return dual_star(bar_reduce(lam))


# Per check: what it reads from each multiplicity multiset, and its mismatch witness.
_CHECKS = {
    "conj1": (lambda ms: ms, lambda left, right:
              f"first differing histogram entry {min(set(left.counts) ^ set(right.counts))}"),
    "conj2": (attrgetter("components"), "component counts {} != {}".format),
    "cz_sum": (attrgetter("mult_sum"), "multiplicity sums {} != {}".format),
}


def compare(check: str, lam: Partition, mu: Partition, *,
            require_near_rectangular: bool = True, histogram=None) -> Verdict:
    """Run ``check`` (conj1 | conj2 | cz_sum) on (lam, mu) vs (lam-dagger, mu).

    conj1 and conj2 SKIP a lam that is not near-rectangular if required.
    ``histogram(lam, mu)`` gives each multiplicity multiset (default: computed).
    """
    if lam.n != mu.n:
        raise ValueError("rank mismatch")
    project, witness = _CHECKS[check]
    if require_near_rectangular and check != "cz_sum" and not is_near_rectangular(lam):
        return Verdict(SKIP, check, lam, mu, witness="lambda is not near-rectangular")
    histogram = histogram or multiplicity_multiset
    left = project(histogram(lam, mu))
    right = project(histogram(lambda_dagger(lam), mu))
    if left == right:
        return Verdict(PASS, check, lam, mu, left, right)
    return Verdict(FAIL, check, lam, mu, left, right, witness=witness(left, right))


def check_conjecture1(lam: Partition, mu: Partition, *, require_near_rectangular: bool = True) -> Verdict:
    """Multiset equality of positive coefficient histograms for lam vs lam-dagger."""
    return compare("conj1", lam, mu, require_near_rectangular=require_near_rectangular)


def check_conjecture2(lam: Partition, mu: Partition, *, require_near_rectangular: bool = True) -> Verdict:
    """Equality of the number of distinct isotypic components only."""
    return compare("conj2", lam, mu, require_near_rectangular=require_near_rectangular)


def cz_sum_check(lam: Partition, mu: Partition) -> Verdict:
    """Sum-of-multiplicities identity; holds with no hypothesis on lam."""
    return compare("cz_sum", lam, mu)


def reproduce_gl5_counterexample() -> Verdict:
    """Rank 5, lam=(3,3,2,0,0), mu=(4,4,1,0,0): component counts 34 vs 33.

    PASSES by reproducing the known failure of dropping the near-rectangular
    hypothesis from conjecture 2; the sum identity still holds on the pair.
    """
    lam = Partition((3, 3, 2, 0, 0))
    mu = Partition((4, 4, 1, 0, 0))
    v = compare("conj2", lam, mu, require_near_rectangular=False)
    if (v.left, v.right) == (34, 33):
        return Verdict(PASS, "repro-gl5", lam, mu, v.left, v.right)
    return Verdict(FAIL, "repro-gl5", lam, mu, v.left, v.right,
                   witness=f"expected counts (34, 33), got ({v.left}, {v.right})")


def stability_check(lam1: int, lam2: int, mu1: int, mu2: int,
                    nu4: tuple[int, int, int, int], n_range=(4, 5, 6)) -> Verdict:
    """Rank independence of the coefficient for near-rectangular factors.

    For each n, lam = (lam1, lam2^{n-2}, 0), mu = (mu1, mu2^{n-2}, 0) and
    nu = (nu1, nu2, (lam2+mu2)^{n-4}, nu3, nu4); all hive counts must agree
    with each other and with the closed-form value.
    """
    if not (lam1 >= lam2 >= 0 and mu1 >= mu2 >= 0):
        raise ValueError("lam1 >= lam2 >= 0 and mu1 >= mu2 >= 0 required")
    n_range = tuple(n_range)
    if not n_range or any(n < 4 or n > 8 for n in n_range):
        raise ValueError("n_range must lie within [4, 8]")
    n1, n2, n3, n4 = nu4
    triples = [(padded((lam1,), lam2, (0,), n), padded((mu1,), mu2, (0,), n),
                padded((n1, n2), lam2 + mu2, (n3, n4), n))  # raises if malformed
               for n in n_range]
    values = {lam.n: count_hives(lam, mu, nu) for lam, mu, nu in triples}
    lam0, mu0, nu0 = triples[0]
    formula = nr_coefficient(lam0, mu0, nu0)  # independent of n
    distinct = set(values.values())
    if len(distinct) == 1 and distinct == {formula}:
        return Verdict(PASS, "stability", lam0, mu0, formula, formula)
    return Verdict(FAIL, "stability", lam0, mu0, values, formula,
                   witness=f"hive counts by rank {values}, closed form {formula}")


# ---------------------------------------------------------------------------
# sweeps


def _nested_ints(value, depth: int):
    """Lists (or tuples) of integers nested ``depth`` deep, as tuples; None if
    ``value`` has any other shape."""
    if depth == 0:
        return value if type(value) is int else None
    if not isinstance(value, (list, tuple)):
        return None
    out = tuple(_nested_ints(v, depth - 1) for v in value)
    return None if None in out else out


@dataclass(frozen=True)
class SweepConfig:
    n: int
    max_nr: int  # bound on max(lam1 - lam2, lam2)
    max_mu_size: int
    check: str  # a name in _CHECKS
    jobs: int = 1
    output_path: str | None = None
    output_format: str = "json"  # json | csv
    extra_cases: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    expected_fail_lambdas: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        for name in ("n", "max_nr", "max_mu_size", "jobs"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if self.n < 2:
            raise ValueError("rank must be >= 2")
        if self.max_nr < 0 or self.max_mu_size < 0:
            raise ValueError("bounds must be nonnegative")
        if self.check not in _CHECKS:
            raise ValueError(f"unknown check {self.check!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string, not {self.output_path!r}")
        if self.output_format != "json" and self.output_path is None:
            raise ValueError("output_format shapes the output_path file; give output_path too")
        for name, depth, shape in (("extra_cases", 3, "[lambda, mu] pairs of integer lists"),
                                   ("expected_fail_lambdas", 2, "integer lists")):
            value = _nested_ints(getattr(self, name), depth)
            if value is None or (depth == 3 and any(len(case) != 2 for case in value)):
                raise ValueError(f"{name} must be a list of {shape}, not {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        for lam in self.expected_fail_lambdas:  # any rank: it may match an extra_cases lambda
            try:
                Partition(lam)
            except ValueError as exc:
                raise ValueError(f"expected_fail_lambdas: {exc}") from None

    def as_json(self) -> dict:
        return {
            "n": self.n,
            "max_nr": self.max_nr,
            "max_mu_size": self.max_mu_size,
            "check": self.check,
            "jobs": self.jobs,
            "output_format": self.output_format,
            "extra_cases": [[list(l), list(m)] for l, m in self.extra_cases],
            "expected_fail_lambdas": [list(l) for l in self.expected_fail_lambdas],
        }

    @classmethod
    def from_json(cls, d: dict) -> "SweepConfig":
        if not isinstance(d, dict):
            raise ValueError(f"sweep config must be a JSON object, not {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown sweep config key(s): {', '.join(map(repr, unknown))}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise ValueError(f"missing sweep config key(s): {', '.join(map(repr, missing))}")
        return cls(**d)


@dataclass(frozen=True)
class VerificationReport:
    config: SweepConfig
    verdicts: tuple[Verdict, ...]
    version: str

    @property
    def passes(self) -> int:
        return sum(1 for v in self.verdicts if v.status == PASS)

    @property
    def fails(self) -> int:
        return sum(1 for v in self.verdicts if v.status == FAIL)

    @property
    def unexpected_fails(self) -> int:
        expected = set(self.config.expected_fail_lambdas)
        return sum(
            1 for v in self.verdicts if v.status == FAIL and v.lam.parts not in expected
        )

    def as_json(self) -> dict:
        return {
            "config": self.config.as_json(),
            "cases": [v.as_json() for v in self.verdicts],
            "summary": {
                "cases": len(self.verdicts),
                "passes": self.passes,
                "fails": self.fails,
                "elapsed_micros": 0,  # kept so report bytes stay the same
            },
            "version": self.version,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.as_json(), indent=2, sort_keys=True) + "\n"

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        fields = ["lambda", "mu", "n", "check", "status", "left", "right", "witness", "micros"]
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for v in self.verdicts:
            row = v.as_json()
            row["lambda"] = ",".join(map(str, row["lambda"]))
            row["mu"] = ",".join(map(str, row["mu"]))
            for k in ("left", "right"):
                if isinstance(row[k], dict):
                    row[k] = ";".join(f"{a}:{b}" for a, b in sorted(row[k].items()))
            writer.writerow(row)
        return buf.getvalue()

    def write(self):
        if self.config.output_path is None:
            return
        text = self.to_csv_text() if self.config.output_format == "csv" else self.to_json_text()
        with open(self.config.output_path, "w") as fh:
            fh.write(text)


def sweep_cases(config: SweepConfig) -> list[tuple[Partition, Partition]]:
    """Deterministic case list: near-rectangular lam over the (lam1-lam2, lam2)
    grid crossed with all mu of size up to the bound, then the injected extras."""
    n = config.n
    cases = []
    for a in range(config.max_nr + 1):
        for b in range(config.max_nr + 1):
            lam = padded((a + b,), b, (0,), n)
            for mu_size in range(config.max_mu_size + 1):
                for shape in partitions_of(mu_size, n):
                    mu = Partition(shape + (0,) * (n - len(shape)))
                    cases.append((lam, mu))
    for lam_parts, mu_parts in config.extra_cases:
        cases.append((Partition(lam_parts), Partition(mu_parts)))
    return cases


def sweep(config: SweepConfig, version: str = "0") -> VerificationReport:
    """Run the configured check over the whole grid.

    lam-dagger of grid point (a, b) is grid point (b, a), so each distinct
    (lam, mu) histogram is computed once, over at most ``jobs`` processes:
    never more than there are pairs or CPUs, since the pool forks every
    worker up front.  Case order is canonical and the report is
    byte-identical across runs.
    """
    cases = sweep_cases(config)
    pairs = list(dict.fromkeys(
        pair for lam, mu in cases for pair in ((lam, mu), (lambda_dagger(lam), mu))))
    workers = min(config.jobs, len(pairs), os.cpu_count() or 1)
    # "auto" per nu, not the product, until ROADMAP item 8 reads the worker's own peak memory
    if workers > 1:
        # imported here: the process pool costs every other run ~20 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            found = list(pool.map(multiplicity_multiset, *zip(*pairs), repeat("auto"), chunksize=8))
    else:
        found = [multiplicity_multiset(lam, mu, "auto") for lam, mu in pairs]
    histograms = dict(zip(pairs, found))
    verdicts = tuple(compare(config.check, lam, mu, require_near_rectangular=False,
                             histogram=lambda *pair: histograms[pair]) for lam, mu in cases)
    report = VerificationReport(config, verdicts, version)
    report.write()
    return report
