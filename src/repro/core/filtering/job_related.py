"""Job-related filtering — the paper's novel third step (§IV-C).

Temporal-spatial filtering cannot see redundancy created by *jobs*: the
scheduler keeps allocating failed nodes to incoming jobs, and users keep
resubmitting buggy codes, so the same underlying problem resurfaces with
arbitrary latency (set by the job arrival rate, not by any constant
threshold).

Rules, applied to *interrupting* events after classification:

* **system failures** — an event is redundant to an earlier event of the
  same ERRCODE at the same midplane if **no job executed successfully
  on that midplane between the two** (the breakage evidently persisted).
  The relation is transitive, so whole kill-chains collapse onto their
  first event;
* **application errors** — an event is redundant if a job with the same
  execution file was already interrupted by the same ERRCODE before
  (the user resubmitted the same buggy code).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.classify import FailureOrigin
from repro.core.jobindex import JobMidplaneIndex
from repro.frame import Frame
from repro.logs.job import JobLog


@dataclass(frozen=True)
class JobRelatedFilter:
    """Finds job-related redundant events among matched interruptions."""

    def redundant_ids(
        self,
        interruptions: Frame,
        job_log: JobLog,
        origins: dict[str, FailureOrigin],
        clean_runs: JobMidplaneIndex | None = None,
    ) -> set[int]:
        """Event ids judged redundant.

        *interruptions* must carry ``event_id``, ``job_id``,
        ``event_time``, ``errcode``, ``executable`` and ``mp`` (the
        event's anchor midplane); *origins* maps ERRCODE to its
        classified origin. *clean_runs* may be shared with the
        classifier to avoid rebuilding the per-midplane index.
        """
        if interruptions.num_rows == 0:
            return set()
        if clean_runs is None:
            clean_runs = JobMidplaneIndex.completed_runs(
                job_log, set(interruptions["job_id"])
            )
        redundant: set[int] = set()
        rows = sorted(interruptions.to_rows(), key=lambda r: r["event_time"])

        # system rule: per (errcode, midplane) kill chains
        last_kill_time: dict[tuple[str, int], float] = {}
        # application rule: executables already killed by each errcode
        seen_exe: dict[str, set[str]] = defaultdict(set)

        for r in rows:
            origin = origins.get(r["errcode"], FailureOrigin.SYSTEM)
            if origin is FailureOrigin.APPLICATION:
                if r["executable"] in seen_exe[r["errcode"]]:
                    redundant.add(int(r["event_id"]))
                seen_exe[r["errcode"]].add(r["executable"])
                continue
            key = (r["errcode"], int(r["mp"]))
            prev = last_kill_time.get(key)
            if prev is not None and not clean_runs.any_between(
                int(r["mp"]), prev, r["event_time"]
            ):
                redundant.add(int(r["event_id"]))
            # transitivity: the redundant kill still extends the chain
            last_kill_time[key] = r["event_time"]
        return redundant


