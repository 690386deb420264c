"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrhive
from lrhive import cli, piecewise
from lrhive.cli import main
from lrhive.coefficients import METHODS
from lrhive.piecewise import FAMILIES, PiecewiseFunction, Polynomial, QuasiPolynomial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lr(capsys):
    code, out = run(capsys, "lr", "--lambda", "5,3", "--mu", "6,3", "--nu", "8,6,3", "--n", "3")
    assert code == 0 and out.strip() == "3"
    code, out = run(capsys, "lr", "--lambda", "0", "--mu", "4,2", "--nu", "4,2", "--n", "3")
    assert code == 0 and out.strip() == "1"


def test_lr_methods_agree(capsys):
    results = set()
    for method in ("auto", "hive", "tableaux", "gl3"):
        code, out = run(capsys, "lr", "--lambda", "2,1", "--mu", "2,1",
                        "--nu", "3,2,1", "--n", "3", "--method", method)
        assert code == 0
        results.add(out.strip())
    assert results == {"2"}


def test_lr_json(capsys):
    code, out = run(capsys, "lr", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1",
                    "--n", "3", "--json")
    assert code == 0
    assert json.loads(out)["coefficient"] == 2


def test_multiset(capsys):
    code, out = run(capsys, "multiset", "--lambda", "5,3", "--mu", "6,3", "--n", "3")
    assert code == 0 and out.strip() == "1:11 2:7 3:3"
    code, out = run(capsys, "multiset", "--lambda", "5,3", "--mu", "6,3", "--n", "3", "--json")
    data = json.loads(out)
    assert data["multiset"] == {"1": 11, "2": 7, "3": 3}
    assert data["components"] == 21 and data["mult_sum"] == 34


# (lambda, mu, n) for `lrhive multiset`, ranks 1-7: rank 3 with lambda_3, mu_3 > 0
# and with mu = 0, both benchmark anchors, and a lambda too long for its rank
MULTISET_CASES = (
    ("3", "5", 1), ("4,1", "3,2", 2), ("0,0", "2,1", 2),
    ("5,2,1", "4,3,2", 3), ("4,2", "0", 3), ("3,1", "2,1", 3), ("0", "3,3", 3),
    ("3,1,1", "2,2,1", 4), ("5,3,1", "5,3,1", 4), ("3,3,2", "4,4,1", 5),
    ("8,5,3,1", "6,4,2,1", 6), ("6,5,4,3,2,1", "5,4,3,2,1", 7),
    ("1,1,1,1", "1", 3),
)
# sha256 of each case's text then --json output, each followed by its exit
# status, all of stderr last; fixed before lr_expansion took over rank 3
MULTISET_SHA256 = "a6a54c160d773b692fc7a44e4ab04dfa2858d46867b45514711f7416d22c9518"


def test_multiset_output_pinned(capsys):
    for lam, mu, n in MULTISET_CASES:
        for extra in ([], ["--json"]):
            print(main(["multiset", "--lambda", lam, "--mu", mu, "--n", str(n), *extra]))
    out, err = capsys.readouterr()
    assert hashlib.sha256((out + err).encode()).hexdigest() == MULTISET_SHA256


def test_multiset_past_the_recursion_limit(capsys):
    """Candidate nu are listed without recursion, so a rank above Python's
    recursion limit works: 1^1100 times 1 is 2^1 1^1099 plus 1^1101."""
    ones = ",".join(["1"] * 1100)
    assert run(capsys, "multiset", "--lambda", ones, "--mu", "1", "--n", "1101") == (0, "1:2\n")


def test_multiset_with_a_thousand_cells(capsys):
    """The product search keeps its own stack: one level per cell of mu."""
    assert run(capsys, "multiset", "--lambda", "0", "--mu", "1000", "--n", "1") == (0, "1:1\n")


def test_conjecture_commands(capsys):
    code, out = run(capsys, "conj1", "--lambda", "5,3", "--mu", "6,3", "--n", "3")
    assert code == 0 and out.startswith("PASS")
    code, out = run(capsys, "conj2", "--lambda", "4,2,2", "--mu", "2,1,1", "--n", "4")
    assert code == 0 and out.startswith("PASS")
    code, out = run(capsys, "czsum", "--lambda", "3,3,2", "--mu", "4,4,1", "--n", "5")
    assert code == 0 and out.startswith("PASS")


def test_stability(capsys):
    code, out = run(capsys, "stability", "--lam1", "2", "--lam2", "1", "--mu1", "2",
                    "--mu2", "1", "--nu", "4,2,2,0", "--ranks", "4,5,6")
    assert code == 0 and out.startswith("PASS")


def test_horn(capsys):
    code, out = run(capsys, "horn", "--family", "nr2", "--lambda", "1,1,1",
                    "--mu", "1,1,1", "--nu", "2,2,1,1", "--n", "4")
    assert code == 0 and out.strip() == "member"
    code, out = run(capsys, "horn", "--family", "nr2", "--lambda", "1,1,1",
                    "--mu", "1,1,1", "--nu", "3,3", "--n", "4", "--json")
    data = json.loads(out)
    assert data["member"] is False and data["violated"]
    code, out = run(capsys, "horn", "--family", "nr", "--generators",
                    "--lambda", "0", "--mu", "0", "--nu", "0", "--n", "4")
    assert code == 0 and len(out.strip().splitlines()) == 12
    # --generators needs no triple
    assert run(capsys, "horn", "--family", "nr", "--generators") == (code, out)


def test_horn_generators_json(capsys):
    assert run(capsys, "horn", "--family", "nr2", "--generators", "--json") == (0, (
        '{"family": "nr2", "generators": ['
        '{"description": "V(1) in V(1)xV(0)", "lambda": [1, 0, 0, 0], "mu": [0, 0, 0, 0], '
        '"nu": [1, 0, 0, 0]}, '
        '{"description": "V(1) in V(0)xV(1)", "lambda": [0, 0, 0, 0], "mu": [1, 0, 0, 0], '
        '"nu": [1, 0, 0, 0]}, '
        '{"description": "V(1^3) in V(1^3)xV(0)", "lambda": [1, 1, 1, 0], "mu": [0, 0, 0, 0], '
        '"nu": [1, 1, 1, 0]}, '
        '{"description": "V(1^3) in V(0)xV(1^3)", "lambda": [0, 0, 0, 0], "mu": [1, 1, 1, 0], '
        '"nu": [1, 1, 1, 0]}, '
        '{"description": "V(1^2) in V(1)xV(1)", "lambda": [1, 0, 0, 0], "mu": [1, 0, 0, 0], '
        '"nu": [1, 1, 0, 0]}, '
        '{"description": "V(1^4) in V(1)xV(1^3)", "lambda": [1, 0, 0, 0], "mu": [1, 1, 1, 0], '
        '"nu": [1, 1, 1, 1]}, '
        '{"description": "V(1^4) in V(1^3)xV(1)", "lambda": [1, 1, 1, 0], "mu": [1, 0, 0, 0], '
        '"nu": [1, 1, 1, 1]}, '
        '{"description": "V(2^2 1^2) in V(1^3)xV(1^3)", "lambda": [1, 1, 1, 0], '
        '"mu": [1, 1, 1, 0], "nu": [2, 2, 1, 1]}]}\n'))
    # the same generators as the text listing, in the same order
    code, out = run(capsys, "horn", "--family", "nr", "--generators", "--json")
    data = json.loads(out)
    assert code == 0 and out.count("\n") == 1 and data["family"] == "nr"
    _, text = run(capsys, "horn", "--family", "nr", "--generators")
    assert [" | ".join(",".join(map(str, g[k])) for k in ("lambda", "mu", "nu"))
            + "  " + g["description"] for g in data["generators"]] == text.splitlines()


def test_piecewise_point(capsys):
    code, out = run(capsys, "piecewise", "--family", "gl3", "--point", "1,1,1,1,0")
    assert code == 0 and out.startswith("5 (piece ")
    code, out = run(capsys, "piecewise", "--family", "gl4nr2", "--point",
                    "2,2,1,1,0", "--json")
    assert code == 0 and json.loads(out)["value"] == 8
    code, out = run(capsys, "piecewise", "--family", "gl4nr-samples", "--point", "1,1,1,0,0")
    assert code == 0 and "3 (piece" in out


def test_piecewise_verify_range(capsys):
    code, out = run(capsys, "piecewise", "--family", "gl3", "--verify-range", "2")
    assert code == 0 and out.startswith("OK")


def test_piecewise_verify_range_json(capsys, monkeypatch):
    assert run(capsys, "piecewise", "--family", "gl3", "--verify-range", "1", "--json") == (
        0, '{"bound": 1, "family": "gl3", "mismatch": null}\n')
    f = piecewise.family_function("gl3")
    k1, l2, c = (Polynomial.var(f.variables, v) for v in ("k1", "l2", "c"))
    broken = PiecewiseFunction(f.variables, f.support, tuple(
        (cone, QuasiPolynomial.plain(q.branches[0] + k1 * l2 * c)) for cone, q in f.pieces))
    monkeypatch.setattr(piecewise, "family_function", lambda _: broken)
    assert run(capsys, "piecewise", "--family", "gl3", "--verify-range", "2") == (
        1, "MISMATCH at {'k1': 1, 'k2': 1, 'l1': 1, 'l2': 1, 'c': 1}: table 2, enumeration 1\n")
    assert run(capsys, "piecewise", "--family", "gl3", "--verify-range", "2", "--json") == (
        1, '{"bound": 2, "family": "gl3", "mismatch": '
           '{"enumeration": 1, "point": [1, 1, 1, 1, 1], "table": 2}}\n')


@pytest.mark.parametrize("family", ["gl3", "gl4nr2", "gl4nr-samples"])
@pytest.mark.parametrize("point", ["1,1,1", "1,1,1,1,1,1"])
def test_piecewise_point_arity(capsys, family, point):
    code = main(["piecewise", "--family", family, "--point", point])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: --point") and captured.err.count("\n") == 1


def test_piecewise_negative_verify_range(capsys):
    code = main(["piecewise", "--family", "gl3", "--verify-range", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_piecewise_dump_round_trips(capsys):
    from lrhive.piecewise import piecewise_from_json, point_of

    code, out = run(capsys, "piecewise", "--family", "gl3", "--dump")
    assert code == 0
    f = piecewise_from_json(json.loads(out))
    assert f.evaluate(point_of(f.variables, (1, 1, 1, 1, 0)))[0] == 5


def test_repro_gl5(capsys):
    code, out = run(capsys, "repro-gl5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PASS" and (data["left"], data["right"]) == (34, 33)


def test_sweep_inline(capsys):
    code, out = run(capsys, "sweep", "--n", "4", "--max-nr", "1", "--max-mu", "2",
                    "--check", "conj1")
    assert code == 0 and "0 FAIL" in out


def test_sweep_config_file(capsys, tmp_path):
    cfg = {"n": 4, "max_nr": 1, "max_mu_size": 2, "check": "cz_sum"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run(capsys, "sweep", "--config", str(path), "--json")
    assert code == 0
    assert json.loads(out)["summary"]["fails"] == 0


@pytest.mark.parametrize("argv, expected", [
    (["conj1", "--lambda", "3,3,2", "--mu", "4,4,1", "--n", "5", "--json"],
     '{"check": "conj1", "lambda": [3, 3, 2, 0, 0], "left": null, "micros": 0, '
     '"mu": [4, 4, 1, 0, 0], "n": 5, "right": null, "status": "SKIP", '
     '"witness": "lambda is not near-rectangular"}'),
    (["conj1", "--lambda", "5,3", "--mu", "6,3", "--n", "3", "--json"],
     '{"check": "conj1", "lambda": [5, 3, 0], "left": {"1": 11, "2": 7, "3": 3}, "micros": 0, '
     '"mu": [6, 3, 0], "n": 3, "right": {"1": 11, "2": 7, "3": 3}, "status": "PASS", '
     '"witness": null}'),
    (["conj2", "--lambda", "3,3,2", "--mu", "4,4,1", "--n", "5"],
     "SKIP conj2 lambda=3,3,2,0,0 mu=4,4,1,0,0 (lambda is not near-rectangular)"),
    (["czsum", "--lambda", "3,3,2", "--mu", "4,4,1", "--n", "5", "--json"],
     '{"check": "cz_sum", "lambda": [3, 3, 2, 0, 0], "left": 42, "micros": 0, '
     '"mu": [4, 4, 1, 0, 0], "n": 5, "right": 42, "status": "PASS", "witness": null}'),
    (["repro-gl5", "--json"],
     '{"check": "repro-gl5", "lambda": [3, 3, 2, 0, 0], "left": 34, "micros": 0, '
     '"mu": [4, 4, 1, 0, 0], "n": 5, "right": 33, "status": "PASS", "witness": null}'),
])
def test_compare_output_exact(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected + "\n")


@pytest.mark.parametrize("argv", [
    ["piecewise", "--family", "gl3"],
    ["piecewise", "--family", "gl4nr-samples", "--dump"],
    ["stability", "--lam1", "2", "--lam2", "1", "--mu1", "2", "--mu2", "1", "--nu", "4,2,2"],
    ["sweep", "--n", "4", "--max-nr", "1"],
    ["sweep", "--config", "{config}", "--jobs", "2"],
    ["sweep", "--config", "{config}", "--n", "9"],
    ["sweep", "--config", "{config}", "--format", "csv"],
    ["sweep", "--config", "{unknown_key}"],
    ["sweep", "--config", "{missing_keys}"],
    ["sweep", "--config", "{scalar}"],
    ["sweep", "--config", "{array}"],
    ["sweep", "--config", "{absent}"],
    ["sweep", "--config", "{string_n}"],
    ["sweep", "--config", "{scalar_cases}"],
    ["sweep", "--config", "{scalar_fail}"],
    ["sweep", "--config", "{list_output}"],
    # a csv report needs a file to go to, and an expected failure must be a partition
    ["sweep", "--config", "{csv_no_output}"],
    ["sweep", "--config", "{unsorted_fail}"],
    ["sweep", "--config", "{negative_fail}"],
    # horn triples outside the facet systems' domain
    ["horn", "--family", "nr2", "--lambda", "1", "--mu", "1", "--nu", "2", "--n", "3"],
    ["horn", "--family", "nr2", "--lambda", "1", "--mu", "1", "--nu", "2", "--n", "3", "--json"],
    ["horn", "--family", "nr", "--lambda", "1", "--mu", "1", "--nu", "2", "--n", "5"],
    ["horn", "--family", "nr2", "--lambda", "3,1", "--mu", "1", "--nu", "4,1", "--n", "4"],
    ["horn", "--family", "nr", "--lambda", "1", "--mu", "1,1,1,1", "--nu", "2,1,1,1", "--n", "4"],
    ["horn", "--family", "nr2", "--lambda", "1", "--mu", "2,1", "--nu", "3,1", "--n", "4"],
    # without --generators the triple is required
    ["horn", "--family", "nr"],
    ["horn", "--family", "nr2", "--lambda", "1", "--mu", "1", "--nu", "2"],
    # piecewise takes exactly one mode
    ["piecewise", "--family", "gl3", "--dump", "--point", "1,1,1,1,0"],
    ["piecewise", "--family", "gl3", "--point", "1,1,1,1,0", "--verify-range", "1"],
    # --format shapes the --output file, so it is not accepted without one
    ["sweep", "--n", "4", "--max-nr", "0", "--max-mu", "1", "--check", "conj1", "--format", "csv"],
])
def test_usage_errors_exit_2(capsys, tmp_path, argv):
    cfg = {"n": 4, "max_nr": 1, "max_mu_size": 2, "check": "conj1"}
    files = {"config": cfg, "unknown_key": {**cfg, "bogus": 1}, "missing_keys": {"n": 4},
             "scalar": 5, "array": [1], "string_n": {**cfg, "n": "4"},
             "scalar_cases": {**cfg, "extra_cases": 3},
             "scalar_fail": {**cfg, "expected_fail_lambdas": [3]},
             "list_output": {**cfg, "output_path": ["out.json"]},
             "csv_no_output": {**cfg, "output_format": "csv"},
             "unsorted_fail": {**cfg, "expected_fail_lambdas": [[1, 2, 3, 4, 5]]},
             "negative_fail": {**cfg, "expected_fail_lambdas": [[2, 1, 0, -1]]}}
    paths = {name: tmp_path / f"{name}.json" for name in [*files, "absent"]}
    for name, content in files.items():
        paths[name].write_text(json.dumps(content))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_import_leaves_process_pool_out():
    """The process pool is imported only by a sweep with jobs > 1."""
    src = os.path.dirname(os.path.dirname(lrhive.__file__))
    code = "import sys, lrhive.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0


def test_internal_error_exit_3(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("lrhive.cli.lr_coefficient", broken)
    code = main(["lr", "--lambda", "1", "--mu", "1", "--nu", "2", "--n", "2"])
    assert (code, capsys.readouterr()) == (3, ("", "internal error: RuntimeError: boom\n"))


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "lrhive":  # the top-level parser, not a subcommand's
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            assert run(capsys, "lr", "--lambda", "1", "--mu", "1", "--nu", "2", "--n", "2") == (0, "1\n")
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lr", "--lambda", "5,3", "--mu", "6,3", "--n", "3"])  # missing --nu
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["bogus"])
    # domain errors surface as exit 2 without a traceback
    code = main(["lr", "--lambda", "1,2", "--mu", "1", "--nu", "2,1", "--n", "2"])
    assert code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "tables revision" in capsys.readouterr().out


def _joined(parts):
    return ",".join(map(str, parts))


# Mostly well-formed values, so that most runs get past argument parsing.
_INT = st.sampled_from(["3", "4", "2", "1", "0", "-1", "x"])
_PARTS = st.one_of(
    st.lists(st.integers(0, 3), max_size=4).map(lambda xs: _joined(sorted(xs, reverse=True))),
    st.lists(st.integers(-1, 3), max_size=4).map(_joined) | st.sampled_from(["x", "1,,2"]),
)
_PAIR = {"--lambda": _PARTS, "--mu": _PARTS, "--n": _INT}
_TRIPLE = {**_PAIR, "--nu": _PARTS}
_JSON = {"--json": None}
# Every subcommand with its required flags, which are always given, and its
# optional ones; None marks a flag without a value.  Small values keep each
# run fast; --output is left out.  config.json holds a drawn _CONFIG.
_FLAGS = {
    "lr": (_TRIPLE, {"--method": st.sampled_from([*METHODS, "bogus"]), **_JSON}),
    "multiset": (_PAIR, _JSON),
    "conj1": (_PAIR, _JSON),
    "conj2": (_PAIR, _JSON),
    "czsum": (_PAIR, _JSON),
    "stability": ({**dict.fromkeys(("--lam1", "--lam2", "--mu1", "--mu2"), _INT), "--nu": _PARTS},
                  {"--ranks": _PARTS, **_JSON}),
    "horn": ({"--family": st.sampled_from(["nr", "nr2", "bogus"])},
             {**_TRIPLE, "--generators": None, **_JSON}),
    "piecewise": ({"--family": st.sampled_from([*FAMILIES, "bogus"])},
                  {"--point": _PARTS, "--verify-range": _INT, "--dump": None, **_JSON}),
    "sweep": ({}, {"--config": st.sampled_from(["config.json", "absent.json", "."]),
                   **dict.fromkeys(("--n", "--max-nr", "--max-mu"), _INT),
                   "--check": st.sampled_from(["conj1", "conj2", "cz_sum", "bogus"]),
                   "--jobs": st.sampled_from(["-1", "0", "1", "x"]),
                   "--format": st.sampled_from(["json", "csv", "bogus"]), **_JSON}),
    "repro-gl5": ({}, _JSON),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required, optional = _FLAGS[command]
    argv = [command]
    for flag, value in {**required, **optional}.items():
        if flag in required or draw(st.booleans()):
            argv += [flag] if value is None else [flag, draw(value)]
    return argv


# Sweep config files: any JSON value; objects whose known keys all hold random
# JSON values; and objects with well-formed required keys whose optional keys
# hold random JSON values or well-formed ones.  Numbers stay small so that a
# config which passes every check runs a tiny sweep, and jobs stays <= 1 (no
# process pool).  A string may name the report file, which then lands in the
# temporary directory.
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats(-1, 3) | st.text("ab.", max_size=3)
    | st.sampled_from(["conj1", "conj2", "cz_sum", "json", "csv"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner,
                                                                 max_size=3),
    max_leaves=6,
)
_PART_LIST = st.lists(st.integers(-1, 3), max_size=3)
_REQUIRED = {
    "n": st.integers(1, 3),
    **dict.fromkeys(("max_nr", "max_mu_size"), st.integers(0, 3)),
    "check": st.sampled_from(["conj1", "conj2", "cz_sum"]),
}
_OPTIONAL = {
    "jobs": st.just(1) | _JSON_VALUE.filter(lambda v: not (type(v) is int and v > 1)),
    "output_path": st.just("out") | _JSON_VALUE,
    "output_format": st.sampled_from(["json", "csv"]) | _JSON_VALUE,
    "extra_cases": st.lists(st.lists(_PART_LIST, min_size=2, max_size=2), max_size=2) | _JSON_VALUE,
    "expected_fail_lambdas": st.lists(_PART_LIST, max_size=2) | _JSON_VALUE,
}
_CONFIG = st.one_of(
    _JSON_VALUE,
    st.fixed_dictionaries({}, optional=dict.fromkeys([*_REQUIRED, *_OPTIONAL], _JSON_VALUE)),
    st.fixed_dictionaries(_REQUIRED, optional=_OPTIONAL),
)


@given(_argv() | st.sampled_from([["sweep", "--config", "config.json"],
                                   ["sweep", "--config", "config.json", "--json"]]), _CONFIG)
@settings(max_examples=400, deadline=None)
def test_cli_exit_status_property(argv, config):
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("config.json", "w") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, config, err.getvalue())
    assert "Traceback" not in err.getvalue()
