"""Performance: sharded store scans — pruning must actually pay.

The hard gate: on a 10-window store, scanning one window through the
time-range pruner must be at least 3× faster than reassembling the full
trace, because nine of the ten shards are never opened. A correctness
check rides along (the pruned scan equals the batch row filter
bit-for-bit) so the speed never drifts away from the equivalence
guarantee, and a full-scan roundtrip record tracks the raw reassembly
cost across commits.
"""

import time

import numpy as np
import pytest

from repro.frame import Frame
from repro.logs.job import JOB_COLUMNS, JobLog
from repro.logs.window import select, window_edges
from repro.store import ShardedDataset

from benchmarks.bench_perf_parallel_ingestion import make_ras_log
from benchmarks.conftest import banner
from benchmarks.trajectory import record_bench

BENCH = "fleet_scan"

ROWS = 120_000
JOBS = 6_000
WINDOWS = 10
MACHINE = "intrepid-00"


def make_job_log(n: int, seed: int = 2011) -> JobLog:
    rng = np.random.default_rng(seed)
    start = np.sort(1.2e9 + rng.random(n) * 3.0e5)
    queued = start - rng.random(n) * 600.0
    end = start + 300.0 + rng.random(n) * 7200.0
    data = {
        "job_id": np.arange(1, n + 1, dtype=np.int64),
        "job_name": np.array([f"job{i % 531}" for i in range(n)], dtype=object),
        "executable": np.array([f"/bin/app{i % 87}" for i in range(n)], dtype=object),
        "queued_time": queued,
        "start_time": start,
        "end_time": end,
        "location": np.array([f"R{i % 40:02d}-M{i % 2}" for i in range(n)], dtype=object),
        "user": np.array([f"user{i % 61}" for i in range(n)], dtype=object),
        "project": np.array([f"proj{i % 17}" for i in range(n)], dtype=object),
        "size_midplanes": (1 + (np.arange(n) % 8)).astype(np.int64),
    }
    return JobLog(Frame({c: data[c] for c in JOB_COLUMNS}))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    ras = make_ras_log(ROWS)
    job = make_job_log(JOBS)
    ds = ShardedDataset.create(tmp_path_factory.mktemp("fleet") / "store")
    ds.add_machine_trace(MACHINE, ras, job, windows=WINDOWS)
    return ds, ras, job


def _best(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _one_window_range(ds, table):
    shards = [s for s in ds.manifest.select(MACHINE, table) if s.rows]
    t0 = min(s.time_min for s in shards)
    t1 = max(s.time_max for s in shards)
    edges = window_edges(t0, t1, WINDOWS)
    return float(edges[4]), float(edges[5])


def test_gate_pruned_scan_beats_full_3x(store):
    """Hard gate: one-window pruned scan >= 3× faster than a full scan."""
    banner(f"fleet scan: pruning gate ({ROWS} rows, {WINDOWS} windows)")
    ds, ras, _ = store
    q = _one_window_range(ds, "ras")

    t_full = _best(lambda: ds.scan(MACHINE, "ras"))
    t_pruned = _best(lambda: ds.scan(MACHINE, "ras", time_range=q))

    # correctness rides along: the pruned scan is the batch row filter
    got = ds.scan(MACHINE, "ras", time_range=q)
    want = select(ras.frame, "ras", *q)
    assert got.num_rows == want.num_rows > 0
    for col in want.columns:
        assert got[col].dtype == want[col].dtype, col
        assert np.array_equal(got[col], want[col]), col

    ratio = t_full / t_pruned
    print(
        f"full {t_full * 1e3:.1f}ms vs pruned {t_pruned * 1e3:.1f}ms"
        f" -> {ratio:.1f}x ({want.num_rows}/{ras.frame.num_rows} rows)"
    )
    record_bench(
        BENCH,
        "pruned_speedup_10shards",
        ratio,
        full_s=t_full,
        pruned_s=t_pruned,
        rows=ROWS,
        windows=WINDOWS,
    )
    assert ratio >= 3.0


def test_full_scan_roundtrip_cost(store):
    """Trajectory record: full reassembly time and bit-identity."""
    banner("fleet scan: full roundtrip")
    ds, ras, job = store
    t_ras = _best(lambda: ds.scan(MACHINE, "ras"))
    t_job = _best(lambda: ds.scan(MACHINE, "job"))
    got_ras = ds.scan(MACHINE, "ras")
    got_job = ds.scan(MACHINE, "job")
    for got, src in ((got_ras, ras.frame), (got_job, job.frame)):
        for col in src.columns:
            assert np.array_equal(got[col], src[col]), col
    print(f"ras {t_ras * 1e3:.1f}ms, job {t_job * 1e3:.1f}ms")
    record_bench(
        BENCH, "full_scan_ras.min_s", t_ras, rows=ROWS, windows=WINDOWS
    )
    record_bench(
        BENCH, "full_scan_job.min_s", t_job, rows=JOBS, windows=WINDOWS
    )


def test_write_throughput_record(store, tmp_path):
    """Trajectory record: partition+write cost at 10 windows."""
    banner("fleet scan: write throughput")
    _, ras, job = store
    t0 = time.perf_counter()
    ds = ShardedDataset.create(tmp_path / "store")
    ds.add_machine_trace(MACHINE, ras, job, windows=WINDOWS)
    t_write = time.perf_counter() - t0
    print(f"write {t_write * 1e3:.0f}ms for {ROWS + JOBS} rows")
    record_bench(
        BENCH, "write_10_windows.s", t_write, rows=ROWS + JOBS
    )
