"""Unit tests for §IV-A identification and §IV-B classification."""

from repro.core.classify import (
    ClassificationRule,
    FailureClassifier,
    FailureOrigin,
)
from repro.core.events import fatal_event_table
from repro.core.identify import EventTypeIdentifier, TypeBehavior
from repro.core.jobindex import JobMidplaneIndex
from repro.core.matching import InterruptionMatcher
from repro.frame import Frame
from tests.core.helpers import jobs, ras


def cases(rows):
    return Frame.from_rows(
        [
            {"errcode": e, "case1": c1, "case2": c2, "case3": c3}
            for e, c1, c2, c3 in rows
        ],
        columns=["errcode", "case1", "case2", "case3"],
    )


class TestIdentifier:
    def test_rules(self):
        result = EventTypeIdentifier().identify(
            cases(
                [
                    ("kills", 3, 1, 0),
                    ("kills_only_case1", 2, 0, 0),
                    ("alarm", 0, 2, 4),
                    ("idle_only", 0, 5, 0),
                    ("mixed", 1, 0, 1),
                ]
            )
        )
        b = result.behaviors
        assert b["kills"] is TypeBehavior.INTERRUPTION_RELATED
        assert b["kills_only_case1"] is TypeBehavior.INTERRUPTION_RELATED
        assert b["alarm"] is TypeBehavior.NONFATAL
        assert b["idle_only"] is TypeBehavior.UNDETERMINED_IDLE
        assert b["mixed"] is TypeBehavior.UNDETERMINED_MIXED

    def test_counts_and_lists(self):
        result = EventTypeIdentifier().identify(
            cases([("a", 1, 0, 0), ("b", 0, 1, 0), ("c", 0, 0, 1)])
        )
        assert result.count(TypeBehavior.INTERRUPTION_RELATED) == 1
        assert result.nonfatal_types() == ["c"]
        assert result.undetermined_types() == ["b"]


def run_classifier(ev_rows, job_rows, tolerance=15.0):
    events = fatal_event_table(ras(ev_rows))
    job_log = jobs(job_rows)
    match = InterruptionMatcher(tolerance=tolerance).match(events, job_log)
    clean = JobMidplaneIndex.completed_runs(
        job_log, match.interrupted_job_ids()
    )
    return FailureClassifier().classify(
        events, match.pairs, match.type_cases, clean_runs=clean
    )


class TestClassifier:
    def test_idle_only_is_system(self):
        result = run_classifier(
            [(1, "SVC", "FATAL", 9999.0, "R30-M0-S")],
            [(1, "/x", 0.0, 100.0, "R00-M0", 1)],
        )
        assert result.origins["SVC"] is FailureOrigin.SYSTEM
        assert result.rules["SVC"] is ClassificationRule.IDLE_ONLY

    def test_sticky_location_is_system(self):
        """Different codes dying on the same midplane in a row: broken
        hardware (rule B / Figure-less §IV-B case)."""
        result = run_classifier(
            [
                (1, "DDR", "FATAL", 1000.0, "R00-M0"),
                (2, "DDR", "FATAL", 3000.0, "R00-M0"),
            ],
            [
                (1, "/x", 500.0, 1000.0, "R00-M0", 1),
                (2, "/y", 2500.0, 3000.0, "R00-M0", 1),
            ],
        )
        assert result.origins["DDR"] is FailureOrigin.SYSTEM
        assert result.rules["DDR"] is ClassificationRule.SAME_LOCATION_MULTI_JOB

    def test_figure2_pattern_is_application(self):
        """Fatal A follows the executable from midplane R00-M0 to
        R10-M0 while a different job completes cleanly on R00-M0 in
        between — the exact Figure 2 scenario."""
        result = run_classifier(
            [
                (1, "SEGV", "FATAL", 1000.0, "R00-M0"),
                (2, "SEGV", "FATAL", 5000.0, "R10-M0"),
            ],
            [
                (1, "/buggy", 500.0, 1000.0, "R00-M0", 1),
                (2, "/clean", 1500.0, 4000.0, "R00-M0", 1),  # unharmed
                (3, "/buggy", 4500.0, 5000.0, "R10-M0", 1),
            ],
        )
        assert result.origins["SEGV"] is FailureOrigin.APPLICATION
        assert (
            result.rules["SEGV"]
            is ClassificationRule.SAME_EXECUTABLE_MULTI_LOCATION
        )

    def test_figure2_needs_unharmed_run_at_old_location(self):
        """Without the clean run on the old midplane there is no
        application evidence; the lone-kill types fall back to
        correlation/system."""
        result = run_classifier(
            [
                (1, "SEGV", "FATAL", 1000.0, "R00-M0"),
                (2, "SEGV", "FATAL", 5000.0, "R10-M0"),
            ],
            [
                (1, "/buggy", 500.0, 1000.0, "R00-M0", 1),
                (3, "/buggy", 4500.0, 5000.0, "R10-M0", 1),
            ],
        )
        assert result.origins["SEGV"] is FailureOrigin.SYSTEM

    def test_nonfatal_pinned_system(self):
        events = fatal_event_table(
            ras([(1, "ALARM", "FATAL", 700.0, "R00-M0")])
        )
        job_log = jobs([(1, "/x", 500.0, 1000.0, "R00-M0", 1)])
        match = InterruptionMatcher().match(events, job_log)
        result = FailureClassifier().classify(
            events, match.pairs, match.type_cases, nonfatal_types={"ALARM"}
        )
        assert result.origins["ALARM"] is FailureOrigin.SYSTEM

    def test_correlation_fallback_inherits_label(self):
        """An unlabeled type co-occurring with a labeled system type in
        the same hourly bins inherits SYSTEM."""
        ev_rows = []
        rid = 0
        for k in range(8):
            t = k * 50000.0
            ev_rows.append((rid, "DDR", "FATAL", t, "R00-M0")); rid += 1
            ev_rows.append((rid, "DDR", "FATAL", t + 1800.0, "R00-M0")); rid += 1
            ev_rows.append((rid, "SHADOW", "FATAL", t + 600.0, "R30-M0")); rid += 1
        job_rows = []
        jid = 1
        for k in range(8):
            t = k * 50000.0
            job_rows.append((jid, f"/a{k}", t - 400.0, t, "R00-M0", 1)); jid += 1
            job_rows.append((jid, f"/b{k}", t + 1000.0, t + 1800.0, "R00-M0", 1)); jid += 1
            job_rows.append((jid, f"/c{k}", t + 100.0, t + 600.0, "R30-M0", 1)); jid += 1
        result = run_classifier(ev_rows, job_rows)
        assert result.origins["DDR"] is FailureOrigin.SYSTEM
        assert result.origins["SHADOW"] is FailureOrigin.SYSTEM
        assert result.rules["SHADOW"] in (
            ClassificationRule.CORRELATION,
            ClassificationRule.SAME_LOCATION_MULTI_JOB,
        )

    def test_origin_of_unknown_defaults_system(self):
        result = run_classifier(
            [(1, "X", "FATAL", 9999.0, "R30-M0")],
            [(1, "/x", 0.0, 100.0, "R00-M0", 1)],
        )
        assert result.origin_of("never_seen") is FailureOrigin.SYSTEM
