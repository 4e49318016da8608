"""Performance: the live telemetry plane must be nearly free.

The hard gate: running the streaming workload with a background
``MetricsSampler`` capturing the global registry into an ops log may
cost at most **3%** over the identical run with no sampler. The
sampler's design (one atomic ``collect()`` under the registry lock,
append+fsync per window) only holds up if the workload threads never
wait on it — if the ratio drifts past 1.03, sampling has started
contending with the work it observes.
"""

import time

from benchmarks.bench_stream_update import make_job_log, make_ras_log
from benchmarks.conftest import banner
from benchmarks.trajectory import record_bench
from repro.obs import MetricsSampler
from repro.obs.metrics import get_metrics
from repro.obs.opslog import OpsLog
from repro.stream import BoundedLatenessStream, split_trace

BENCH = "obs_live"

ROWS = 60_000
JOBS = 300
INCREMENTS = 20
SAMPLE_INTERVAL_S = 0.25
ROUNDS = 5


def _best(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_gate_sampler_overhead_under_3pct(tmp_path):
    ras = make_ras_log(ROWS)
    job = make_job_log(ras, JOBS)
    incs = split_trace(ras, job, increments=INCREMENTS)
    t0, t1 = ras.time_span()
    horizon = (t1 - t0) / INCREMENTS

    def run_workload():
        get_metrics().reset()
        bls = BoundedLatenessStream(allowed_lateness=horizon)
        for inc in incs:
            bls.ingest(inc.ras, inc.job, inc.watermark)
        return bls.result()

    def run_sampled():
        sampler = MetricsSampler(
            registry=get_metrics(),
            interval_s=SAMPLE_INTERVAL_S,
            ops_log=OpsLog(tmp_path / "ops", machine="bench"),
        )
        with sampler:
            result = run_workload()
        return result

    banner(
        f"obs live: background-sampler overhead ({ROWS} rows,"
        f" {INCREMENTS} increments, {SAMPLE_INTERVAL_S}s interval)"
    )
    t_bare = _best(run_workload)
    t_sampled = _best(run_sampled)

    ratio = t_sampled / t_bare
    print(
        f"bare {t_bare * 1e3:.1f}ms vs sampled {t_sampled * 1e3:.1f}ms"
        f" -> {ratio:.3f}x"
    )
    record_bench(
        BENCH,
        "sampler_overhead_ratio",
        ratio,
        bare_s=t_bare,
        sampled_s=t_sampled,
        rows=ROWS,
        increments=INCREMENTS,
        sample_interval_s=SAMPLE_INTERVAL_S,
    )
    assert ratio <= 1.03
