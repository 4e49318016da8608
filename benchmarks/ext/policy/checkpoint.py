"""Checkpoint policy evaluation over an analyzed trace.

The §VII guidance, made executable: given the job log and the
co-analysis interruption record, replay every job under a checkpoint
policy and account for

* **checkpoint overhead**: cost × number of checkpoints written before
  the job ended (naturally or not);
* **lost work**: for interrupted jobs, the work since the last
  checkpoint (the whole run, if none was taken).

Policies only see what a runtime system would see at submission time:
the job's size, its planned position in the executable's history, and
the fitted failure model — never the ground truth of whether this run
will fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from repro.frame import Frame
from repro.logs.job import JobLog


class CheckpointPolicy(Protocol):
    """Decides the checkpoint times for one run."""

    name: str

    def checkpoint_times(
        self,
        size_midplanes: int,
        planned_runtime: float,
        had_app_history: bool,
    ) -> list[float]:
        """Offsets (seconds into the run) at which checkpoints happen."""
        ...


@dataclass(frozen=True)
class NoCheckpointPolicy:
    """Baseline: never checkpoint (resubmission is the recovery)."""

    name: str = "none"

    def checkpoint_times(self, size_midplanes, planned_runtime, had_app_history):
        return []


@dataclass(frozen=True)
class PeriodicPolicy:
    """Fixed-interval checkpointing, the classic operational default."""

    interval: float = 3600.0
    name: str = "periodic-1h"

    def checkpoint_times(self, size_midplanes, planned_runtime, had_app_history):
        n = int(planned_runtime // self.interval)
        return [self.interval * (i + 1) for i in range(n)]


@dataclass(frozen=True)
class SizeAwareYoungPolicy:
    """Young's interval on a size-scaled MTTI (Obs. 10).

    ``mtti`` is the fitted category-1 MTTI for the whole machine; a
    job of ``s`` midplanes sees roughly ``mtti / (s / mean_size)`` —
    the linear width effect of Table VI.
    """

    mtti: float
    checkpoint_cost: float = 180.0
    mean_size: float = 2.0
    name: str = "size-young"

    def checkpoint_times(self, size_midplanes, planned_runtime, had_app_history):
        eff_mtti = self.mtti * self.mean_size / max(size_midplanes, 1)
        interval = math.sqrt(2.0 * self.checkpoint_cost * eff_mtti)
        n = int(planned_runtime // interval)
        return [interval * (i + 1) for i in range(n)]


@dataclass(frozen=True)
class HistoryAwarePolicy:
    """The paper's §VII composite policy.

    Like :class:`SizeAwareYoungPolicy`, but codes with an
    application-error history skip checkpoints inside the first-hour
    danger window (Obs. 11: ~75% of app errors fire before 3,600 s, so
    early checkpoints of suspect codes protect nothing and cost
    overhead).
    """

    mtti: float
    checkpoint_cost: float = 180.0
    mean_size: float = 2.0
    defer_window: float = 3600.0
    name: str = "history-aware"

    def checkpoint_times(self, size_midplanes, planned_runtime, had_app_history):
        base = SizeAwareYoungPolicy(
            mtti=self.mtti,
            checkpoint_cost=self.checkpoint_cost,
            mean_size=self.mean_size,
        ).checkpoint_times(size_midplanes, planned_runtime, had_app_history)
        if not had_app_history:
            return base
        return [t for t in base if t > self.defer_window]


@dataclass(frozen=True)
class CheckpointOutcome:
    """Aggregate accounting for one policy over one trace."""

    policy: str
    overhead_mp_seconds: float
    lost_mp_seconds: float
    checkpoints_written: int
    interrupted_jobs: int

    @property
    def total_cost(self) -> float:
        return self.overhead_mp_seconds + self.lost_mp_seconds


def evaluate_checkpoint_policy(
    policy: CheckpointPolicy,
    job_log: JobLog,
    interruptions: Frame,
    checkpoint_cost: float = 180.0,
) -> CheckpointOutcome:
    """Replay every job under *policy* and account overhead + loss.

    A job's *planned* runtime is unknowable post hoc for interrupted
    runs, so the replay uses the recorded runtime for overhead (a
    checkpoint scheduled after death is never written) and charges lost
    work from the last written checkpoint to the interruption instant.
    Application-error history is tracked per executable as the replay
    progresses (a policy can only know the past).
    """
    interrupted_cat: dict[int, int] = {
        int(r["job_id"]): int(r["category"]) for r in interruptions.to_rows()
    }
    jobs = job_log.frame.sort_by("start_time", "job_id")
    app_history: set[str] = set()
    overhead = lost = 0.0
    written = 0
    n_interrupted = 0
    for row in jobs.to_rows():
        jid = int(row["job_id"])
        runtime = row["end_time"] - row["start_time"]
        size = int(row["size_midplanes"])
        times = policy.checkpoint_times(
            size, max(runtime, 1.0), row["executable"] in app_history
        )
        cat = interrupted_cat.get(jid, 0)
        if cat:
            n_interrupted += 1
        taken = [t for t in times if t + checkpoint_cost <= runtime]
        written += len(taken)
        overhead += len(taken) * checkpoint_cost * size
        if cat == 1:
            # system failure: restarting from the last checkpoint works
            last = max(taken) + checkpoint_cost if taken else 0.0
            lost += max(0.0, runtime - last) * size
        elif cat == 2:
            # application error: the checkpoint holds a state that will
            # crash again on restart — the run's work is lost no matter
            # what was written (§VII's case against early checkpoints)
            lost += runtime * size
            app_history.add(row["executable"])
    return CheckpointOutcome(
        policy=policy.name,
        overhead_mp_seconds=overhead,
        lost_mp_seconds=lost,
        checkpoints_written=written,
        interrupted_jobs=n_interrupted,
    )
