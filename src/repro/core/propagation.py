"""Failure propagation analysis (§VI-C, Observation 8).

Temporal propagation — the same problem resurfacing through scheduler
reallocation or user resubmission — is exactly what the job-related
filter quantifies (§IV-C). This module measures *spatial* propagation:
one fatal event interrupting several concurrently running jobs in
different locations, which on Intrepid happens only through shared
infrastructure (the file system)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.frame import Frame


@dataclass(frozen=True)
class PropagationStudy:
    """Spatial propagation summary."""

    #: events that interrupted >= 2 jobs at >= 2 distinct locations
    propagating_events: int
    #: all interrupting events
    interrupting_events: int
    #: total filtered fatal events (denominator for the paper's 7.22%)
    total_events: int
    #: ERRCODEs responsible for propagation
    propagating_types: tuple[str, ...]

    @property
    def share_of_fatal_events(self) -> float:
        if self.total_events == 0:
            return 0.0
        return self.propagating_events / self.total_events


def propagation_study(pairs: Frame, total_events: int) -> PropagationStudy:
    """Find events whose kills span several jobs and locations.

    *pairs* is the matcher's (event, job) table; *total_events* the
    filtered fatal-event count.
    """
    by_event: dict[int, tuple[str, set[int], set[str]]] = {}
    for r in pairs.to_rows():
        errcode, jobs, locations = by_event.setdefault(
            int(r["event_id"]), (r["errcode"], set(), set())
        )
        jobs.add(int(r["job_id"]))
        locations.add(r["job_location"])
    propagating = {
        errcode
        for errcode, jobs, locations in by_event.values()
        if len(jobs) >= 2 and len(locations) >= 2
    }
    n_prop = sum(
        1
        for _, jobs, locations in by_event.values()
        if len(jobs) >= 2 and len(locations) >= 2
    )
    return PropagationStudy(
        propagating_events=n_prop,
        interrupting_events=len(by_event),
        total_events=total_events,
        propagating_types=tuple(sorted(propagating)),
    )
