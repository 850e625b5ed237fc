"""The repository benchmark: one command, four workloads, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload logs-extract --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``logs-extract``     — ``Spanner.extract`` on long sparse server logs;
* ``contacts-dense``   — ``Spanner.extract`` / ``Spanner.count`` alternating
  on dense contact records;
* ``serve-tail``       — ``repro serve`` as a subprocess, fed tailing logs by
  an open-loop client over one connection;
* ``nested-enumerate`` — draining ``Spanner.enumerate`` with nested captures.
  It runs like the others but is not listed in ``BENCHMARK.json``: its
  interpreter-bound enumeration speeds up by up to 1.7x while a shared
  host's sibling hardware thread is idle, which moved its run-to-run
  spread far past any usable bound.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays every
operation layer by layer and prints the per-layer metrics.  Every output
is checked against an independent oracle (:mod:`perfbench.oracles`).  The
last line of standard output is the JSON result; the lines before it are
a human-readable table and a ``report`` line holding the input properties.

The program under test is imported from ``src/`` next to this directory
and nowhere else: without it the command exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKLOADS = ("logs-extract", "contacts-dense", "nested-enumerate", "serve-tail")


def _declared(trace: bool) -> dict[str, str]:
    """Metric name → unit that ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", choices=WORKLOADS[:3],
        help="internal: time one in-process set-up in this fresh interpreter",
    )
    args = parser.parse_args(argv)
    if args.workload is None and args.setup_probe is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SOURCE / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SOURCE)]

    if args.setup_probe:
        from perfbench import inproc

        seconds, _spanner = inproc.setup_once(args.setup_probe, args.seed)
        print(repr(seconds))
        return 0

    trace = bool(args.trace)
    declared = _declared(trace)
    if args.workload == "serve-tail":
        from perfbench import serve

        try:
            result = serve.run(args.seed, args.seconds, trace)
        except serve.InvalidRun as error:
            print(f"perfbench: invalid run: {error}", file=sys.stderr)
            return 3
    else:
        from perfbench import inproc

        result = inproc.run(args.workload, args.seed, args.seconds, trace)

    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SOURCE}",
              file=sys.stderr)
        return 2
    absent = [name for name in declared if name not in result.metrics]
    if absent and not trace:
        print(f"perfbench: end-to-end metrics not measured: {absent}", file=sys.stderr)
        return 2
    # Layers this workload never enters spent no time there: report 0.
    for name in absent:
        result.metric(name, 0.0, declared[name])
    result.report["not_on_path"] = absent
    wrong = sorted(name for name, (_value, unit) in result.metrics.items()
                   if declared.get(name) != unit)
    if wrong:
        print(f"perfbench: metrics undeclared or in the wrong unit: {wrong}",
              file=sys.stderr)
        return 2
    result.metrics = {name: result.metrics[name] for name in declared}
    for line in result.lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
