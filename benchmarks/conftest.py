"""Shared fixtures for the experiment benchmarks.

Every table/figure benchmark reuses one simulated trace and one finished
co-analysis, built once per session. ``REPRO_BENCH_SCALE`` (default
0.25) trades fidelity for wall-clock; at 1.0 the trace matches the
paper's full volumes (Table I) and takes ~1 minute to generate.

Every pytest-benchmark result is exported at session end as a
perf-trajectory record (``BENCH_<module>.json`` via
:func:`benchmarks.trajectory.record_bench`, in ``$REPRO_BENCH_DIR`` or the working
directory) so timings accumulate across commits; manual gate tests call
``record_bench`` themselves.
"""

import os
from pathlib import Path

import pytest

from repro.core import CoAnalysis
from benchmarks.trajectory import record_bench
from repro.simulate import CalibrationProfile, IntrepidSimulation

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2011"))


def bench_name(module_file: str) -> str:
    """``BENCH_<name>.json`` name for a benchmark module path."""
    stem = Path(module_file).stem
    return stem[len("bench_"):] if stem.startswith("bench_") else stem


def pytest_sessionfinish(session, exitstatus):
    """Export every pytest-benchmark result as a perf-trajectory record."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    for bench in bench_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None:  # errored before any round ran
            continue
        try:
            record_bench(
                bench_name(bench.fullname.split("::")[0]),
                f"{bench.name}.min_s",
                stats.min,
                rounds=stats.rounds,
                mean_s=stats.mean,
                scale=BENCH_SCALE,
            )
        except OSError:
            pass  # read-only working directory; records are best-effort


@pytest.fixture(scope="session")
def profile():
    return CalibrationProfile(seed=BENCH_SEED, scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def trace(profile):
    return IntrepidSimulation(profile).run()


@pytest.fixture(scope="session")
def analysis(trace):
    return CoAnalysis().run(trace.ras_log, trace.job_log)


def banner(title: str) -> None:
    print("\n" + "=" * 70)
    print(title, f"(scale={BENCH_SCALE}, seed={BENCH_SEED})")
    print("=" * 70)
