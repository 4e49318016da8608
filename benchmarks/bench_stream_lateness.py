"""Performance: the bounded-lateness reorder buffer must be cheap.

The hard gate: feeding an in-order trace through
``BoundedLatenessStream`` with a realistic horizon may cost at most 2x
the strict streaming core it wraps. The buffer is allowed to sort and
slice its frontier, but it must never replay history — if the ratio
drifts past 2x, the lateness layer has stopped being a thin shim.
Correctness rides along: the buffered replay is compared bit-for-bit
against the batch pipeline, so the speed can never drift away from the
equivalence guarantee.
"""

import time

from benchmarks.bench_stream_update import make_job_log, make_ras_log
from benchmarks.conftest import banner
from repro.core.equivalence import diff_results
from repro.core.pipeline import CoAnalysis
from benchmarks.trajectory import record_bench
from repro.stream import (
    BoundedLatenessStream,
    StreamingCoAnalysis,
    split_trace,
)

BENCH = "stream_lateness"

ROWS = 60_000
JOBS = 300
INCREMENTS = 20


def _best(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_gate_lateness_overhead_under_2x():
    ras = make_ras_log(ROWS)
    job = make_job_log(ras, JOBS)
    incs = split_trace(ras, job, increments=INCREMENTS)
    t0, t1 = ras.time_span()
    horizon = (t1 - t0) / INCREMENTS  # buffer about one increment

    def run_strict():
        runner = StreamingCoAnalysis()
        for inc in incs:
            runner.ingest_increment(inc)
        return runner.result()

    def run_buffered():
        bls = BoundedLatenessStream(allowed_lateness=horizon)
        for inc in incs:
            bls.ingest(inc.ras, inc.job, inc.watermark)
        return bls.result()

    banner(
        f"stream lateness: reorder-buffer overhead ({ROWS} rows,"
        f" {INCREMENTS} increments, horizon = 1 increment)"
    )
    t_strict = _best(run_strict)
    t_buffered = _best(run_buffered)

    batch = CoAnalysis().run(ras, job)
    diffs = diff_results(run_buffered(), batch)
    assert diffs == [], diffs

    ratio = t_buffered / t_strict
    print(
        f"strict {t_strict * 1e3:.1f}ms vs buffered {t_buffered * 1e3:.1f}ms"
        f" -> {ratio:.2f}x"
    )
    record_bench(
        BENCH,
        "lateness_overhead_ratio",
        ratio,
        strict_s=t_strict,
        buffered_s=t_buffered,
        rows=ROWS,
        increments=INCREMENTS,
    )
    assert ratio <= 2.0
