"""Performance: incremental streaming updates — the tail must be cheap.

The hard gate: on a 10x-scale RAS-heavy trace cut into 10 increments,
folding in the *final* increment and finalizing the streaming result
must be at least 5x faster than recomputing the whole batch pipeline
from scratch — that is the point of keeping an open-window frontier
instead of replaying history. Correctness rides along (the streaming
result is compared bit-for-bit against the batch run) so the speed can
never drift away from the equivalence guarantee.
"""

import time

import numpy as np
import pytest

from repro.core.equivalence import diff_results
from repro.core.pipeline import CoAnalysis
from repro.frame import Frame
from repro.logs.job import JOB_COLUMNS, JobLog
from repro.logs.ras import RAS_COLUMNS, RasLog
from repro.obs import record_bench
from repro.stream import StreamingCoAnalysis, split_trace

from benchmarks.conftest import banner

BENCH = "stream_update"

ROWS = 120_000  # 10x the ingestion benchmark's base trace
JOBS = 500
INCREMENTS = 10


def _locations(n: int) -> np.ndarray:
    # the valid 5x8 rack grid, midplanes 0/1
    return np.array(
        [f"R{(i % 40) // 8}{(i % 40) % 8}-M{i % 2}" for i in range(n)],
        dtype=object,
    )


def make_ras_log(n: int, seed: int = 2011) -> RasLog:
    """A RAS-heavy feed: every record fatal, so extraction and the
    filter chain see the full volume (the batch-side cost the frontier
    amortizes away)."""
    rng = np.random.default_rng(seed)
    comp = np.array(["KERNEL", "MMCS", "CARD", "MC"], dtype=object)
    data = {
        "recid": np.arange(1, n + 1, dtype=np.int64),
        "msg_id": np.array([f"KERN_{i % 97:04d}" for i in range(n)], dtype=object),
        "component": comp[rng.integers(0, len(comp), n)],
        "subcomponent": np.array([f"sub{i % 11}" for i in range(n)], dtype=object),
        "errcode": np.array([f"_bgp_err_{i % 23}" for i in range(n)], dtype=object),
        "severity": np.array(["FATAL"] * n, dtype=object),
        "event_time": np.cumsum(rng.random(n)) + 1.2e9,
        "location": _locations(n),
        "serialnumber": np.array([f"SN{i:08d}" for i in range(n)], dtype=object),
        "message": np.array([f"msg {i}" for i in range(n)], dtype=object),
    }
    return RasLog(Frame({c: data[c] for c in RAS_COLUMNS}))


def make_job_log(ras: RasLog, n: int, seed: int = 7) -> JobLog:
    t0, t1 = ras.time_span()
    rng = np.random.default_rng(seed)
    start = np.sort(t0 + rng.random(n) * (t1 - t0))
    end = start + 300.0 + rng.random(n) * 3600.0
    data = {
        "job_id": np.arange(1, n + 1, dtype=np.int64),
        "job_name": np.array([f"job{i % 13}" for i in range(n)], dtype=object),
        "executable": np.array([f"/bin/app{i % 17}" for i in range(n)], dtype=object),
        "queued_time": start - 60.0,
        "start_time": start,
        "end_time": end,
        "location": _locations(n),
        "user": np.array([f"u{i % 5}" for i in range(n)], dtype=object),
        "project": np.array([f"p{i % 3}" for i in range(n)], dtype=object),
        "size_midplanes": np.ones(n, dtype=np.int64),
    }
    return JobLog(Frame({c: data[c] for c in JOB_COLUMNS}))


@pytest.fixture(scope="module")
def workload():
    ras = make_ras_log(ROWS)
    job = make_job_log(ras, JOBS)
    return ras, job, split_trace(ras, job, increments=INCREMENTS)


def _best(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _prefed_runner(incs) -> StreamingCoAnalysis:
    runner = StreamingCoAnalysis()
    for inc in incs[:-1]:
        runner.ingest_increment(inc)
    return runner


def test_gate_final_update_beats_batch_5x(workload):
    """Hard gate: final-increment update + finalize >= 5x faster than a
    full batch recompute of the same trace."""
    banner(
        f"stream update: incremental gate ({ROWS} rows,"
        f" {INCREMENTS} increments)"
    )
    ras, job, incs = workload

    t_batch = _best(lambda: CoAnalysis().run(ras, job))

    # result() is terminal, so each timed round gets its own runner,
    # pre-fed (untimed) with everything but the last increment
    runners = [_prefed_runner(incs) for _ in range(3)]
    t_final = min(
        _best(
            lambda r=r: (r.ingest_increment(incs[-1]), r.result()),
            rounds=1,
        )
        for r in runners
    )

    # correctness rides along: the streamed result is bit-identical
    batch = CoAnalysis().run(ras, job)
    stream = _prefed_runner(incs)
    stream.ingest_increment(incs[-1])
    diffs = diff_results(stream.result(), batch)
    assert diffs == [], diffs

    ratio = t_batch / t_final
    print(
        f"batch {t_batch * 1e3:.1f}ms vs final update {t_final * 1e3:.1f}ms"
        f" -> {ratio:.1f}x ({batch.filter_stats.raw} raw rows)"
    )
    record_bench(
        BENCH,
        "final_update_speedup_10x",
        ratio,
        batch_s=t_batch,
        final_update_s=t_final,
        rows=ROWS,
        increments=INCREMENTS,
    )
    assert ratio >= 5.0


def test_increment_cost_trajectory(workload):
    """Trajectory record: mean per-increment ingest cost stays flat —
    each increment touches the tail, not the history."""
    banner("stream update: per-increment cost")
    _, _, incs = workload
    runner = StreamingCoAnalysis()
    updates = [runner.ingest_increment(inc) for inc in incs]
    walls = np.array([u.wall_s for u in updates])
    print(
        f"increments: mean {walls.mean() * 1e3:.1f}ms"
        f" min {walls.min() * 1e3:.1f}ms max {walls.max() * 1e3:.1f}ms"
    )
    # the dearest increment must stay within a small factor of the mean,
    # or ingest is secretly re-touching history
    assert walls.max() <= 5.0 * max(walls.mean(), 1e-4)
    record_bench(
        BENCH,
        "increment_ingest.mean_s",
        float(walls.mean()),
        max_s=float(walls.max()),
        rows=ROWS,
        increments=INCREMENTS,
    )
