"""Spans around the calls into each lrhive module, and the per-layer metrics
made from them.

The modules import names directly (`from .coefficients import lr_coefficient`),
so each wrapper replaces the name where its caller looks it up, e.g.
`lrhive.piecewise.lr_coefficient`.  A layer is the module that defines the
wrapped function.  Spans stay in memory until the pass ends.

`tableaux` and `horn` are on no timed path: the tableaux oracle runs only in
the untimed output check, and no workload reaches a Horn facet system.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter_ns

# (where the caller looks the name up, the name)
TARGETS = (
    ("lrhive.cli", "multiplicity_multiset"),
    ("lrhive.cli", "verify_family"),
    ("lrhive.cli", "sweep"),
    ("lrhive.cli", "reproduce_gl5_counterexample"),
    ("lrhive.verify", "multiplicity_multiset"),
    ("lrhive.piecewise", "count_above_enum"),
    ("lrhive.piecewise", "enumerate_nu_candidates"),
    ("lrhive.piecewise", "lr_coefficient"),
    ("lrhive.piecewise.PiecewiseFunction", "evaluate"),
    ("lrhive.coefficients", "count_hives"),
    ("lrhive.coefficients", "gl3_coefficient"),
    ("lrhive.coefficients", "nr_coefficient"),
)

# Spans whose (lambda, mu) arguments are recorded, to count distinct pairs.
KEYED = frozenset({"piecewise.multiplicity_multiset", "piecewise.count_above_enum"})

LAYERS = ("cli", "verify", "piecewise", "partitions", "coefficients", "hive", "formulas")

COUNTER_UNITS = {
    "verify.multiset_calls": "count",
    "verify.multiset_distinct": "count",
    "verify.multiset_reuse": "ratio",
    "piecewise.multiset_calls": "count",
    "piecewise.evaluate_calls": "count",
    "piecewise.enum_calls": "count",
    "piecewise.enum_pair_reuse": "ratio",
    "partitions.candidate_calls": "count",
    "partitions.candidates": "count",
    "coefficients.calls": "count",
    "coefficients.zero_frac": "ratio",
    "coefficients.to_hive": "count",
    "coefficients.to_gl3": "count",
    "coefficients.to_nr": "count",
    "coefficients.short_circuit": "count",
    "hive.calls": "count",
    "hive.zero_calls": "count",
    "hive.useful_frac": "ratio",
    "hive.count_sum": "count",
    "formulas.gl3_calls": "count",
    "formulas.nr_calls": "count",
    "trace.spans": "count",
}
TIME_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "verify.sweep_s": "s",
    "piecewise.multiset_s": "s",
    "piecewise.evaluate_s": "s",
    "piecewise.enum_s": "s",
    "partitions.candidates_s": "s",
    "coefficients.s": "s",
    "hive.s": "s",
    "hive.ms_per_call": "ms",
    "formulas.s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER_UNITS = {**COUNTER_UNITS, **TIME_UNITS}


def _owner(path: str):
    """The module, or the class inside a module, that `path` names."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """One span per wrapped call: name, start, end, parent span, item id,
    plus the call's integer result (or result length) and (lambda, mu) key."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.item = array("l")
        self.value = array("q")
        self.key = array("l")
        self._keys: dict = {}
        self._stack = [-1]
        self.item_id = -1

    def wrap(self, fn):
        """`fn` with a span around every call, named `<module>.<function>`."""
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        nid = len(self.names)
        self.names.append(name)
        keyed = name in KEYED
        stack, keys = self._stack, self._keys

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.item.append(self.item_id)
            self.key.append(keys.setdefault((args[0].parts, args[1].parts), len(keys)) if keyed else -1)
            self.value.append(0)
            self.end.append(0)
            stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                stack.pop()
            if isinstance(result, int):
                self.value[i] = result
            elif isinstance(result, list):
                self.value[i] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for path, attr in TARGETS:
            owner = _owner(path)
            setattr(owner, attr, self.wrap(getattr(owner, attr)))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\tvalue\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                         f"{self.parent[i]}\t{self.item[i]}\t{self.value[i]}\n")

    def metrics(self) -> tuple[dict, dict]:
        """(counters, times): counters must repeat exactly from pass to pass."""
        names = self.names
        span_name = [names[n] for n in self.name_id]
        layer_of = [s.partition(".")[0] for s in span_name]
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * len(dur)
        children: dict[int, list[str]] = {}
        calls = dict.fromkeys(names, 0)
        incl = dict.fromkeys(names, 0)
        zero = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0)
        for i, (name, p) in enumerate(zip(span_name, self.parent)):
            calls[name] += 1
            incl[name] += dur[i]
            total[name] += self.value[i]
            zero[name] += self.value[i] == 0
            if p >= 0:
                covered[p] += dur[i]
                children.setdefault(p, []).append(name)
        self_ns = dict.fromkeys(LAYERS, 0)
        for i, layer in enumerate(layer_of):
            self_ns[layer] += dur[i] - covered[i]

        def from_verify(i):
            return self.parent[i] >= 0 and layer_of[self.parent[i]] == "verify"

        ms = "piecewise.multiplicity_multiset"
        verify_ms = [i for i, s in enumerate(span_name) if s == ms and from_verify(i)]
        enum_keys = {self.key[i] for i, s in enumerate(span_name) if s == "piecewise.count_above_enum"}
        lr = [i for i, s in enumerate(span_name) if s == "coefficients.lr_coefficient"]
        backend = dict.fromkeys(("hive.count_hives", "formulas.gl3_coefficient", "formulas.nr_coefficient"), 0)
        for i in lr:
            for child in children.get(i, ()):
                backend[child] += 1

        def ratio(a, b):
            return a / b if b else 0.0

        def reuse(distinct, calls):
            return 1 - distinct / calls if calls else 0.0

        hive = "hive.count_hives"
        counters = {
            "verify.multiset_calls": len(verify_ms),
            "verify.multiset_distinct": len({self.key[i] for i in verify_ms}),
            "piecewise.multiset_calls": calls[ms],
            "piecewise.evaluate_calls": calls["piecewise.evaluate"],
            "piecewise.enum_calls": calls["piecewise.count_above_enum"],
            "partitions.candidate_calls": calls["partitions.enumerate_nu_candidates"],
            "partitions.candidates": total["partitions.enumerate_nu_candidates"],
            "coefficients.calls": len(lr),
            "coefficients.to_hive": backend[hive],
            "coefficients.to_gl3": backend["formulas.gl3_coefficient"],
            "coefficients.to_nr": backend["formulas.nr_coefficient"],
            "coefficients.short_circuit": sum(1 for i in lr if i not in children),
            "hive.calls": calls[hive],
            "hive.zero_calls": zero[hive],
            "hive.count_sum": total[hive],
            "formulas.gl3_calls": calls["formulas.gl3_coefficient"],
            "formulas.nr_calls": calls["formulas.nr_coefficient"],
            "trace.spans": len(dur),
        }
        counters["verify.multiset_reuse"] = reuse(counters["verify.multiset_distinct"], len(verify_ms))
        counters["piecewise.enum_pair_reuse"] = reuse(len(enum_keys), counters["piecewise.enum_calls"])
        counters["coefficients.zero_frac"] = ratio(zero["coefficients.lr_coefficient"], len(lr))
        counters["hive.useful_frac"] = ratio(calls[hive] - zero[hive], calls[hive])

        times = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
        times.update({
            "verify.sweep_s": incl["verify.sweep"] / 1e9,
            "piecewise.multiset_s": incl[ms] / 1e9,
            "piecewise.evaluate_s": incl["piecewise.evaluate"] / 1e9,
            "piecewise.enum_s": incl["piecewise.count_above_enum"] / 1e9,
            "partitions.candidates_s": incl["partitions.enumerate_nu_candidates"] / 1e9,
            "coefficients.s": incl["coefficients.lr_coefficient"] / 1e9,
            "hive.s": incl[hive] / 1e9,
            "hive.ms_per_call": ratio(incl[hive] / 1e6, calls[hive]),
            "formulas.s": (incl["formulas.gl3_coefficient"] + incl["formulas.nr_coefficient"]) / 1e9,
        })
        return counters, times
