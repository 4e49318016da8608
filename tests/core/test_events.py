"""Unit tests for the fatal-event table."""

import pytest

from repro.core.events import fatal_event_table
from tests.core.events_reference import fatal_event_table_by_row
from tests.core.helpers import ras
from tests.logs.test_block_boundaries import _frame_state


@pytest.fixture
def table():
    return fatal_event_table(
        ras(
            [
                (1, "A", "FATAL", 100.0, "R00-M0-N01-J05"),
                (2, "B", "WARN", 150.0, "R00-M0"),
                (3, "A", "FATAL", 200.0, "R10"),
                (4, "C", "FATAL", 50.0, "R47-M1-S"),
            ]
        )
    )


class TestConstruction:
    def test_only_fatal_rows(self, table):
        assert len(table) == 3
        assert set(table.frame["errcode"]) == {"A", "C"}

    def test_sorted_by_time(self, table):
        times = list(table.frame["event_time"])
        assert times == sorted(times)

    def test_midplane_span_node_level(self, table):
        row = table.frame.filter(table.frame.mask_eq("event_time", 100.0)).row(0)
        assert row["mp_lo"] == row["mp_hi"] == 0

    def test_midplane_span_rack_level(self, table):
        row = table.frame.filter(table.frame.mask_eq("event_time", 200.0)).row(0)
        assert (row["mp_lo"], row["mp_hi"]) == (16, 17)

    def test_event_ids_unique(self, table):
        ids = table.frame["event_id"]
        assert len(set(ids)) == len(ids)


class TestOperations:
    def test_interarrival_times_positive(self, table):
        gaps = table.interarrival_times()
        assert list(gaps) == [50.0, 100.0]

    def test_interarrival_drops_zero_gaps(self):
        t = fatal_event_table(
            ras([(1, "A", "FATAL", 10.0, "R00-M0"), (2, "A", "FATAL", 10.0, "R00-M1"),
                 (3, "A", "FATAL", 30.0, "R00-M0")])
        )
        assert list(t.interarrival_times()) == [20.0]

    def test_drop_ids(self, table):
        eid = int(table.frame["event_id"][0])
        smaller = table.drop_ids({eid})
        assert len(smaller) == 2
        assert eid not in set(smaller.frame["event_id"])

    def test_midplane_counts_rack_event_counts_twice(self, table):
        counts = table.midplane_counts()
        assert counts[16] == 1 and counts[17] == 1
        assert counts[0] == 1
        assert counts[79] == 1
        assert counts.sum() == 4  # 3 events, one spans 2 midplanes


class TestGatheredLocations:
    """Each distinct location is parsed once and gathered to its rows;
    the table must be bit-identical to the per-row oracle's."""

    def test_hand_built_levels(self):
        log = ras([
            (1, "A", "FATAL", 100.0, "R00-M0-N01-J05"),
            (2, "B", "WARN", 150.0, "R00-M0"),
            (3, "A", "FATAL", 200.0, "R10"),
            (4, "C", "FATAL", 50.0, "R47-M1-S"),
            (5, "C", "FATAL", 60.0, "R10"),
            (6, "A", "FATAL", 60.0, "R23-M1-L2"),
            (7, "A", "FATAL", 70.0, "R00-M0-N01-J05"),
        ])
        assert _frame_state(fatal_event_table(log).frame) == _frame_state(
            fatal_event_table_by_row(log).frame
        )

    def test_empty_and_no_fatal(self):
        for log in (ras([]), ras([(1, "A", "INFO", 1.0, "R00-M0")])):
            got = fatal_event_table(log)
            assert len(got) == 0
            assert _frame_state(got.frame) == _frame_state(
                fatal_event_table_by_row(log).frame
            )

    def test_simulated_trace(self):
        from repro.simulate import CalibrationProfile, IntrepidSimulation

        log = IntrepidSimulation(
            CalibrationProfile(seed=2011, scale=0.02)
        ).run().ras_log
        got = fatal_event_table(log)
        assert len(got) > 100
        assert len(set(got.frame["location"].tolist())) > 10
        want = fatal_event_table_by_row(log)
        assert _frame_state(got.frame) == _frame_state(want.frame)

    def test_malformed_location_raises_like_the_row_scan(self):
        # the first malformed location in row order raises, not the
        # first in sorted order
        log = ras([
            (1, "A", "FATAL", 10.0, "R00-M0"),
            (2, "A", "FATAL", 20.0, "Zzz"),
            (3, "A", "FATAL", 30.0, "Aaa"),
        ])
        with pytest.raises(ValueError) as want:
            fatal_event_table_by_row(log)
        with pytest.raises(ValueError) as got:
            fatal_event_table(log)
        assert str(got.value) == str(want.value) == "malformed location 'Zzz'"
