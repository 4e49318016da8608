"""Self-test of the end-to-end benchmark at smoke size (under a minute).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.layers import METRICS, coverage_problems, unattributed_s

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(trace_dir: Path, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke",
         "--trace-dir", str(trace_dir), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("e2e")


@pytest.fixture(scope="module")
def traced(trace_dir) -> dict:
    return bench(trace_dir, "--trace", "1")


def _expected(section: str) -> dict[str, str]:
    return {
        f"{w}.{m['name']}": m["unit"]
        for w in WORKLOADS
        for m in SPEC[section]
    }


def _printed(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_untraced_metrics_match_benchmark_json(trace_dir):
    result = bench(trace_dir, "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert _printed(result) == _expected("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_metrics_match_benchmark_json(traced):
    assert traced["correct"] and traced["failed"] == 0
    assert _printed(traced) == _expected("per_layer")
    assert [(m.name, m.unit, m.better) for m in METRICS] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ]


def test_traced_manifests_validate(trace_dir, traced):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for workload in WORKLOADS:
        manifest = trace_dir / "manifests" / f"{workload}-seed2011.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "trace", str(manifest),
             "--validate"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("manifest OK")


def _pass_spans(parse_s: float) -> list[dict]:
    """A 10 s CLI pass: 1 s import, then ``cli.main`` for 9 s, of which
    the RAS parse covers *parse_s* and the rest is no layer's."""
    def span(id_, parent, name, start, wall):
        return {"id": id_, "parent": parent, "name": name, "start_s": start,
                "wall_s": wall, "rows": -1, "attrs": {}}

    return [
        span(1, None, "run", 0.0, 10.0),
        span(2, 1, "cli.import", 0.0, 1.0),
        span(3, 1, "cli.main", 1.0, 9.0),
        span(4, 3, "logs.read_ras", 1.0, parse_s),
    ]


def test_cli_main_self_time_is_unattributed():
    assert unattributed_s(_pass_spans(6.0), 10.0) == pytest.approx(3.0)
    assert unattributed_s(_pass_spans(8.5), 10.0) == pytest.approx(0.5)
    guard = [p for p in coverage_problems("cold_w1", _pass_spans(6.0), 10.0)
             if p.startswith("trace.unattributed_s")]
    assert len(guard) == 1
    assert not any(
        p.startswith("trace.unattributed_s")
        for p in coverage_problems("cold_w1", _pass_spans(8.5), 10.0)
    )


def test_strict_run_on_corrupted_ras_log_fails(trace_dir):
    result = bench(
        trace_dir, "--workload", "cold_w1", "--corrupt-ras", "0.05"
    )
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
