"""``python -m benchmarks.e2e``: run the end-to-end benchmark.

::

    python -m benchmarks.e2e [--workload NAME|all] [--seed 2011]
        [--seconds 30] [--trace [0|1]] [--smoke]
        [--trace-dir DIR] [--out FILE]
    python -m benchmarks.e2e compare A.jsonl B.jsonl

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from .layers import WORKLOADS
from .run import (
    ROOT,
    SRC,
    SMOKE_SCALE,
    BenchError,
    Settings,
    record,
    render,
    result_line,
    run_workload,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", allow_abbrev=False,
        description="End-to-end and per-layer benchmark of repro.",
    )
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=2011,
                   help="trace seed; the same seed gives the same inputs")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring window per workload (default 30)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="1: report per-layer metrics from traced passes")
    p.add_argument("--smoke", action="store_true",
                   help=f"scale {SMOKE_SCALE}, one set-up"
                        " and one timed repetition")
    p.add_argument("--trace-dir", type=Path, default=ROOT / ".e2e_work",
                   help="reusable directory for traces, caches and"
                        " manifests (default .e2e_work)")
    p.add_argument("--out", type=Path, default=None,
                   help="append one JSON line per workload for `compare`")
    p.add_argument("--corrupt-ras", type=float, default=None,
                   metavar="RATE",
                   help="analyze a `repro corrupt`ed RAS log (the"
                        " failure-accounting self-test)")
    return p


def settings_from(args) -> Settings:
    common = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace_dir": args.trace_dir.resolve(),
        "corrupt_rate": args.corrupt_ras,
    }
    if args.smoke:
        common.update(scale=SMOKE_SCALE, setup_reps=1,
                      setup_min_s=0.0, single_rep=True)
    return Settings(**common)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from .compare import main as compare_main

        return compare_main(argv[1:])
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated benchmark still stops the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    s = settings_from(args)
    trace = bool(args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    try:
        for workload in workloads:
            outcome = run_workload(s, workload, trace)
            print(render(outcome, s, trace), flush=True)
            outcomes.append(outcome)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as fh:
            for o in outcomes:
                fh.write(json.dumps(record(o, s, trace)) + "\n")
    print(json.dumps(result_line(outcomes, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
