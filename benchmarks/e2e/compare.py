"""``python -m benchmarks.e2e compare A.jsonl B.jsonl``: baseline vs change.

A and B are ``--out`` files of untraced runs, A from the baseline
commit and B from the change, made with the same settings (ideally the
same seeds, alternating which side runs first). Runs of a workload are
paired in file order. For every (end-to-end metric, workload) pair the
comparison prints each side's median and quartiles, the share of pairs
the change wins (ties count for neither side) and a verdict:

* ``unresolved`` — the baseline's own spread (quartile distance over
  median) is wider than the metric's bound, so no change within the
  bound can be told apart; ``better (all runs)`` instead when every
  run of the change reads better than every run of the baseline;
* ``REGRESSION`` — the change's median is worse than the baseline's by
  more than the bound;
* ``gain`` — the change wins at least nine tenths of the pairs and the
  medians differ by more than the baseline's quartile distance;
* ``ok`` — none of the above: no worse than the bound allows.

``failed_frac`` (failed / attempted operations) regresses on any
increase. The exit status is 1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from .run import ROOT

GAIN_WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced ``--out`` records of *path*, by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, lower: bool):
    """``(verdict, win share)`` for one metric's baseline/change runs."""
    def better(x, y):  # x reads better than y
        return x < y if lower else x > y

    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs) / len(pairs)
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    worse = (med_b - med_a) if lower else (med_a - med_b)
    if (q3 - q1) > bound * abs(med_a):
        if all(better(y, x) for x in a for y in b):
            return "better (all runs)", wins
        return "unresolved", wins
    if worse > bound * abs(med_a):
        return "REGRESSION", wins
    if wins >= GAIN_WIN_SHARE and -worse > q3 - q1:
        return "gain", wins
    return "ok", wins


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:>11.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    p.add_argument("baseline", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_runs, b_runs = load_runs(args.baseline), load_runs(args.change)
    regressed = False
    print(f"{'workload':<12} {'metric':<12} {'baseline median [q1, q3]':>34}"
          f" {'change median [q1, q3]':>34} {'win':>5}  verdict")
    for workload in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[workload], b_runs[workload]
        for m in spec["end_to_end"]:
            av = [r["metrics"][m["name"]] for r in a]
            bv = [r["metrics"][m["name"]] for r in b]
            v, wins = verdict(av, bv, m["bound"], m["better"] == "lower")
            regressed |= v == "REGRESSION"
            print(f"{workload:<12} {m['name']:<12} {_fmt(av):>34}"
                  f" {_fmt(bv):>34} {wins:>5.2f}  {v}")
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        v = "REGRESSION" if fb > fa else "ok"
        regressed |= v == "REGRESSION"
        print(f"{workload:<12} {'failed_frac':<12} {fa:>34.4g} {fb:>34.4g}"
              f" {'':>5}  {v}")
    missing = set(a_runs) ^ set(b_runs)
    if missing:
        print(f"only on one side: {', '.join(sorted(missing))}")
    return 1 if regressed else 0
