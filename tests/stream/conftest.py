"""Shared synthetic traces for the streaming equivalence suite.

Locations must parse (5 rack rows x 8 columns, midplane 0/1), so the
fixtures cycle ``R{row}{col}-M{m}`` over the valid grid. Two trace
shapes are provided:

* a generic mixed-severity trace dense enough to exercise every filter
  stage and the matcher (module-scoped, shared by most tests);
* a crafted trigger->follower trace whose ``_A -> _B`` pattern mines a
  causality rule, so the causal keep-mask path is validated too
  (generic random traces never reach min-support).
"""

import numpy as np
import pytest

from repro.core.pipeline import CoAnalysis, CoAnalysisResult
from repro.frame import Frame
from repro.logs.job import JobLog
from repro.logs.ras import RasLog
from repro.stream import StreamingCoAnalysis, StreamUpdate, split_trace


def valid_locations(n):
    return np.array(
        [f"R{(i % 40) // 8}{(i % 40) % 8}-M{i % 2}" for i in range(n)],
        dtype=object,
    )


def make_ras(n, seed=2011, t0=1.2e9, mean_gap=3.0):
    rng = np.random.default_rng(seed)
    sev = np.array(["INFO", "WARN", "ERROR", "FATAL"], dtype=object)
    comp = np.array(["KERNEL", "MMCS", "CARD", "MC"], dtype=object)
    return RasLog(
        Frame(
            {
                "recid": np.arange(1, n + 1, dtype=np.int64),
                "msg_id": np.array(
                    [f"KERN_{i % 97:04d}" for i in range(n)], dtype=object
                ),
                "component": comp[rng.integers(0, len(comp), n)],
                "subcomponent": np.array(
                    [f"sub{i % 11}" for i in range(n)], dtype=object
                ),
                "errcode": np.array(
                    [f"_bgp_err_{i % 23}" for i in range(n)], dtype=object
                ),
                "severity": sev[rng.integers(0, len(sev), n)],
                "event_time": np.cumsum(rng.random(n) * 2 * mean_gap) + t0,
                "location": valid_locations(n),
                "serialnumber": np.array(
                    [f"SN{i:08d}" for i in range(n)], dtype=object
                ),
                "message": np.array(
                    [f"msg {i}" for i in range(n)], dtype=object
                ),
            }
        )
    )


def make_jobs(ras_log, n, seed=7):
    t0, t1 = ras_log.time_span()
    rng = np.random.default_rng(seed)
    start = np.sort(t0 + rng.random(n) * (t1 - t0))
    end = start + 30.0 + rng.random(n) * 600.0
    return JobLog(
        Frame(
            {
                "job_id": np.arange(1, n + 1, dtype=np.int64),
                "job_name": np.array(
                    [f"job{i % 13}" for i in range(n)], dtype=object
                ),
                "executable": np.array(
                    [f"/bin/app{i % 17}" for i in range(n)], dtype=object
                ),
                "queued_time": start - 5.0,
                "start_time": start,
                "end_time": end,
                "location": valid_locations(n),
                "user": np.array([f"u{i % 5}" for i in range(n)], dtype=object),
                "project": np.array(
                    [f"p{i % 3}" for i in range(n)], dtype=object
                ),
                "size_midplanes": np.ones(n, dtype=np.int64),
            }
        )
    )


def replay_trace(
    ras_log: RasLog,
    job_log: JobLog,
    increments: int,
    pipeline: CoAnalysis | None = None,
    source: str = "stream",
) -> tuple[list[StreamUpdate], CoAnalysisResult]:
    """Replay a recorded trace through the streaming runner in K cuts."""
    runner = StreamingCoAnalysis(
        pipeline=pipeline if pipeline is not None else CoAnalysis(),
        source=source,
    )
    updates = [
        runner.ingest_increment(inc)
        for inc in split_trace(ras_log, job_log, increments=increments)
    ]
    return updates, runner.result()


def make_causal_trace(periods=25, t0=1.2e9):
    """Trigger ``_A`` every 400 s, follower ``_B`` 50 s later.

    The 50 s lag sits inside the default 120 s causality window but the
    400 s period is past the 300 s temporal/spatial thresholds, so both
    types survive chaining and the miner sees a confident A->B rule.
    """
    times, errs = [], []
    for k in range(periods):
        times += [t0 + k * 400.0, t0 + k * 400.0 + 50.0]
        errs += ["_A", "_B"]
    n = len(times)
    ras = RasLog(
        Frame(
            {
                "recid": np.arange(1, n + 1, dtype=np.int64),
                "msg_id": np.array(["KERN_0001"] * n, dtype=object),
                "component": np.array(["KERNEL"] * n, dtype=object),
                "subcomponent": np.array(["sub"] * n, dtype=object),
                "errcode": np.array(errs, dtype=object),
                "severity": np.array(["FATAL"] * n, dtype=object),
                "event_time": np.array(times, dtype=np.float64),
                "location": valid_locations(n),
                "serialnumber": np.array(["SN0"] * n, dtype=object),
                "message": np.array(["m"] * n, dtype=object),
            }
        )
    )
    return ras, make_jobs(ras, 40, seed=3)


@pytest.fixture(scope="module")
def trace():
    ras = make_ras(1500)
    return ras, make_jobs(ras, 200)


@pytest.fixture(scope="module")
def batch(trace):
    ras, job = trace
    return CoAnalysis().run(ras, job)
