"""One benchmark pass in a fresh interpreter: set up, then run every call of
the workload once through `lrhive.cli.main`, and print the results as one
JSON line.  run.py starts it; it is not meant to be run by hand.

    python3 perfbench/worker.py --workload NAME --seed N [--trace SPANS.tsv] [--tiny] [--setup-only]
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def set_up():
    """Import the CLI and build the two tables, as every CLI call does.

    This runs before anything else is imported, so it pays for the standard
    modules lrhive needs just as a fresh `lrhive` process does.
    """
    start = perf_counter()
    sys.path.insert(0, SRC)
    from lrhive import cli
    from lrhive.piecewise import family_function

    family_function("gl3")
    family_function("gl4nr2")
    return cli, perf_counter() - start


def _run(main, argv):
    """(exit code, stdout, error text) of one CLI call."""
    import io
    import traceback
    from contextlib import redirect_stdout

    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        return exc.code, buf.getvalue(), f"SystemExit: {exc.code}"
    except Exception:
        return None, buf.getvalue(), traceback.format_exc()
    return rc, buf.getvalue(), None


def main() -> int:
    cli, setup_s = set_up()
    if not cli.__file__.startswith(SRC):
        raise SystemExit(f"error: imported lrhive from {cli.__file__}, not from {SRC}")
    import argparse
    import json
    import resource

    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS.tsv", help="record spans and write them here")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    argvs = workloads.calls(args.workload, args.seed, args.tiny)
    tracer = None
    cli_main = cli.main
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.wrap(cli.main)

    results, item_s = [], []
    for i, argv in enumerate(argvs):
        if tracer:
            tracer.item_id = i
        t = perf_counter()
        results.append(_run(cli_main, argv))
        item_s.append(perf_counter() - t)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for rc, _, error in results:
        if error:
            print(error, file=sys.stderr)
    out = {"setup_s": setup_s, "item_s": item_s, "peak_rss_mib": peak_rss_mib,
           "calls": [{"rc": rc, "out": text} for rc, text, _ in results]}
    if tracer:
        out["counters"], out["times"] = tracer.metrics()
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
