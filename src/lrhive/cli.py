"""Command-line interface.

Exit status: 0 on success, 1 when a verification verdict FAILs (or a
piecewise verify scan finds a mismatch), 2 on usage errors, 3 when the
program itself fails (one ``internal error:`` line, no traceback), and 141
(128 + SIGPIPE) with nothing printed when the reader of stdout is gone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import TABLES_REVISION, __version__
from .coefficients import METHODS, lr_coefficient
from .partitions import Partition
from .piecewise import (
    FAMILIES,
    family_function,
    multiplicity_multiset,
    piecewise_to_json,
    verify_family,
)
from .verify import (
    _CHECKS,
    FAIL,
    SweepConfig,
    _summary_json,
    compare,
    reproduce_gl5_counterexample,
    stability_check,
    sweep,
)

def _partition(args, name: str) -> Partition:
    return Partition.parse(getattr(args, name), args.n)


def _add_triple(sub, nu_required=True, required=True):
    sub.add_argument("--lambda", dest="lam", required=required, metavar="PARTS")
    sub.add_argument("--mu", required=required, metavar="PARTS")
    if nu_required:
        sub.add_argument("--nu", required=required, metavar="PARTS")
    sub.add_argument("--n", type=int, required=required, help="rank (pads omitted zeros)")


@lru_cache(maxsize=None)
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, built once per process and command: building it costs
    more than most commands it runs, and parsing leaves it unchanged.

    Given a ``command``, it holds that subcommand's parser alone; its usage
    still lists every command, so the usage lines its errors print are the
    full parser's.  The full parser serves the top-level help and every
    argument list that does not start with a command.
    """
    parser = argparse.ArgumentParser(
        prog="lrhive",
        description="Exact Littlewood-Richardson coefficients, counting functions, and conjecture sweeps.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"lrhive {__version__} (tables revision {TABLES_REVISION})",
    )
    # an explicit metavar would rename the argument in the full parser's
    # own errors (a missing or unknown command), so only the one-command
    # parser, which makes neither, spells out the list its choices would give
    listing = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listing)
    for name, (text, run, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            p.set_defaults(run=run)
            add_arguments(p)
            p.add_argument("--json", action="store_true")  # last, as every subcommand lists it
    return parser


def _lr_arguments(p) -> None:
    _add_triple(p)
    p.add_argument("--method", choices=METHODS, default="auto")


def _pair_arguments(p) -> None:
    _add_triple(p, nu_required=False)


def _stability_arguments(p) -> None:
    p.add_argument("--lam1", type=int, required=True)
    p.add_argument("--lam2", type=int, required=True)
    p.add_argument("--mu1", type=int, required=True)
    p.add_argument("--mu2", type=int, required=True)
    p.add_argument("--nu", required=True, metavar="N1,N2,N3,N4", help="the four free parts of nu")
    p.add_argument("--ranks", default="4,5,6", metavar="N,N,...")


def _horn_arguments(p) -> None:
    _add_triple(p, required=False)  # the triple is required unless --generators
    p.add_argument("--family", choices=("nr", "nr2"), required=True)
    p.add_argument("--generators", action="store_true", help="list the Hilbert generators instead")


def _piecewise_arguments(p) -> None:
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--point", metavar="X,X,...", help="integer point, one coordinate per table variable")
    p.add_argument("--verify-range", type=int, metavar="B",
                   help="scan all points with coordinates in [0, B] against enumeration")
    p.add_argument("--dump", action="store_true", help="print the table as JSON")


def _sweep_arguments(p) -> None:
    p.add_argument("--config", metavar="FILE.json")
    p.add_argument("--n", type=int)
    p.add_argument("--max-nr", type=int, help="bound on max(lambda1-lambda2, lambda2)")
    p.add_argument("--max-mu", type=int, help="bound on |mu|")
    p.add_argument("--check", choices=tuple(_CHECKS))
    p.add_argument("--jobs", type=int)
    p.add_argument("--output", metavar="FILE")
    p.add_argument("--format", choices=("json", "csv"))


def _show(args, data, text) -> None:
    """Print a result: ``data`` as one line of JSON under --json, else ``text``."""
    print(json.dumps(data, sort_keys=True) if args.json else text)


def _emit_verdict(args, v) -> int:
    line = f"{v.status} {v.check} lambda={v.lam} mu={v.mu}"
    _show(args, v.as_json(), f"{line} ({v.witness})" if v.witness else line)
    return 1 if v.status == FAIL else 0


def _cmd_lr(args) -> int:
    lam, mu, nu = (_partition(args, k) for k in ("lam", "mu", "nu"))
    value = lr_coefficient(lam, mu, nu, args.method)
    _show(args, {"lambda": list(lam), "mu": list(mu), "nu": list(nu),
                 "method": args.method, "coefficient": value}, value)
    return 0


def _cmd_multiset(args) -> int:
    lam, mu = _partition(args, "lam"), _partition(args, "mu")
    ms = multiplicity_multiset(lam, mu)
    _show(args, {"lambda": list(lam), "mu": list(mu), "multiset": _summary_json(ms),
                 "components": ms.components, "mult_sum": ms.mult_sum},
          " ".join(f"{v}:{k}" for v, k in ms.counts))
    return 0


def _cmd_compare(args) -> int:
    lam, mu = _partition(args, "lam"), _partition(args, "mu")
    check = "cz_sum" if args.command == "czsum" else args.command
    return _emit_verdict(args, compare(check, lam, mu))


def _cmd_stability(args) -> int:
    nu4 = tuple(int(t) for t in args.nu.split(","))
    if len(nu4) != 4:
        raise ValueError("--nu needs exactly four parts")
    ranks = tuple(int(t) for t in args.ranks.split(","))
    v = stability_check(args.lam1, args.lam2, args.mu1, args.mu2, nu4, ranks)
    return _emit_verdict(args, v)


def _cmd_horn(args) -> int:
    # imported here: building the facet systems and generators costs every
    # other command ~4 ms of start-up
    from .horn import facet_system, hilbert_generators

    if args.generators:
        gens = hilbert_generators(args.family)
        rows = [{"lambda": list(g.lam), "mu": list(g.mu), "nu": list(g.nu),
                 "description": g.description} for g in gens]
        _show(args, {"family": args.family, "generators": rows},
              "\n".join(f"{g.lam} | {g.mu} | {g.nu}  {g.description}" for g in gens))
        return 0
    if None in (args.lam, args.mu, args.nu, args.n):
        raise ValueError("horn needs --lambda --mu --nu --n, or --generators")
    lam, mu, nu = (_partition(args, k) for k in ("lam", "mu", "nu"))
    bad = facet_system(args.family).violated(lam, mu, nu)
    _show(args, {"family": args.family, "member": not bad, "violated": bad},
          f"non-member, violated facet indices {bad}" if bad else "member")
    return 0


def _cmd_piecewise(args) -> int:
    if (args.point is not None) + (args.verify_range is not None) + args.dump != 1:
        raise ValueError("piecewise needs exactly one of --point, --verify-range, --dump")
    if args.verify_range is not None:
        mismatch = verify_family(args.family, args.verify_range)
        if mismatch is None:
            found, text = None, f"OK: {args.family} agrees with enumeration up to {args.verify_range}"
        else:
            point, table_value, true_value = mismatch
            found = {"point": list(point.values()), "table": table_value, "enumeration": true_value}
            text = f"MISMATCH at {point}: table {table_value}, enumeration {true_value}"
        _show(args, {"family": args.family, "bound": args.verify_range, "mismatch": found}, text)
        return 0 if found is None else 1
    f = family_function(args.family)
    full = "c" in f.variables  # a full table has the threshold c; the sample pieces do not
    if args.dump:
        if not full:
            raise ValueError("--dump supports the full tables only (gl3, gl4nr2)")
        print(json.dumps(piecewise_to_json(f), sort_keys=True))
        return 0
    coords = tuple(int(t) for t in args.point.split(","))
    if len(coords) != len(f.variables):
        raise ValueError(f"--point for {args.family} needs {len(f.variables)} coordinates "
                         f"({','.join(f.variables)}), got {len(coords)}")
    if full:
        value, index = f.evaluate_at(coords)
        _show(args, {"point": list(coords), "value": value, "piece": index},
              f"{value} (outside support)" if index is None else f"{value} (piece {index})")
    else:
        hits = f.values_at(coords)
        _show(args, {"point": list(coords), "pieces": [{"index": i, "value": v} for i, v in hits]},
              "\n".join(f"{v} (piece {i})" for i, v in hits) or "no sample piece contains the point")
    return 0


def _cmd_sweep(args) -> int:
    inline = {"n": args.n, "max_nr": args.max_nr, "max_mu_size": args.max_mu, "check": args.check,
              "jobs": args.jobs, "output_path": args.output, "output_format": args.format}
    given = {k: v for k, v in inline.items() if v is not None}
    if args.config and given:
        raise ValueError("use either --config or inline flags, not both")
    if not args.config and not {"n", "max_nr", "max_mu_size", "check"} <= given.keys():
        raise ValueError("sweep needs --config or all of --n --max-nr --max-mu --check")
    if args.format is not None and args.output is None:
        raise ValueError("--format shapes the --output file; give --output too")
    try:  # an unreadable --config or an unwritable report path is a usage error
        if args.config:
            with open(args.config) as fh:
                try:
                    data = json.load(fh)
                except RecursionError:
                    raise ValueError(f"config nests too deeply: {args.config}") from None
            config = SweepConfig.from_json(data)
        else:
            config = SweepConfig(**given)
        report = sweep(config, version=f"{__version__}+t{TABLES_REVISION}")
    except OSError as exc:
        raise ValueError(f"{exc.strerror}: {exc.filename}") from exc
    if args.json:
        print(report.to_json_text(), end="")
    else:
        print(f"{len(report.verdicts)} cases: {report.passes} PASS, {report.fails} FAIL")
        for v in report.verdicts:
            if v.status == FAIL:
                print(f"  FAIL lambda={v.lam} mu={v.mu}: {v.witness}")
    return 0 if report.unexpected_fails == 0 else 1


# each subcommand's help line, handler and arguments, in the order the help lists them
_COMMANDS = {
    "lr": ("one coefficient c_{lambda,mu}^nu", _cmd_lr, _lr_arguments),
    "multiset": ("histogram of positive coefficients over nu", _cmd_multiset, _pair_arguments),
    **{name: (f"run the {name} comparison on one (lambda, mu)", _cmd_compare, _pair_arguments)
       for name in ("conj1", "conj2", "czsum")},
    "stability": ("rank independence for near-rectangular factors", _cmd_stability, _stability_arguments),
    "horn": ("facet-system membership at rank 4", _cmd_horn, _horn_arguments),
    "piecewise": ("evaluate or verify a counting-function table", _cmd_piecewise, _piecewise_arguments),
    "sweep": ("batch conjecture checks over a (lambda, mu) grid", _cmd_sweep, _sweep_arguments),
    "repro-gl5": ("reproduce the rank-5 component-count counterexample",
                  lambda a: _emit_verdict(a, reproduce_gl5_counterexample()), lambda p: None),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a list that starts with a command needs no other subcommand's parser
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # here, so a closed stdout raises inside the try
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null device,
        # so the interpreter's last flush is silent, and exit as `cat` would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a verdict: keep it apart from exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
