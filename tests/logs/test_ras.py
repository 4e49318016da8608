"""Unit tests for the RAS log schema and container."""

import pytest

from repro.logs import RasLog, RasRecord
from repro.logs.ras import empty_ras_log


def make_record(recid=1, severity="FATAL", errcode="KERN_PANIC", t=100.0,
                location="R00-M0", component="KERNEL"):
    return RasRecord(
        recid=recid,
        msg_id="KERN_0802",
        component=component,
        subcomponent="_bgp_unit",
        errcode=errcode,
        severity=severity,
        event_time=t,
        location=location,
        serialnumber="44V4173YL11K8021017",
        message="An error was detected",
    )


class TestRecord:
    def test_fields_match_table2(self):
        r = make_record()
        for field in ("recid", "msg_id", "component", "subcomponent",
                      "errcode", "severity", "event_time", "location",
                      "serialnumber", "message"):
            assert hasattr(r, field)

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            make_record(severity="CRITICAL")

    def test_bad_component_rejected(self):
        with pytest.raises(ValueError, match="component"):
            make_record(component="NETWORK")


class TestRasLog:
    @pytest.fixture
    def log(self):
        return RasLog.from_records(
            [
                make_record(recid=3, t=300.0, severity="INFO"),
                make_record(recid=1, t=100.0, severity="FATAL"),
                make_record(recid=2, t=200.0, severity="FATAL", errcode="DDR_ERR"),
                make_record(recid=4, t=200.0, severity="WARN"),
            ]
        )

    def test_sorted_by_time_then_recid(self, log):
        assert list(log.frame["recid"]) == [1, 2, 4, 3]

    def test_len(self, log):
        assert len(log) == log.num_records == 4

    def test_fatal_subset(self, log):
        fatal = log.fatal()
        assert len(fatal) == 2
        assert set(fatal.frame["errcode"]) == {"KERN_PANIC", "DDR_ERR"}

    def test_time_span(self, log):
        assert log.time_span() == (100.0, 300.0)

    def test_select_time_half_open(self, log):
        sel = log.select_time(100.0, 300.0)
        assert len(sel) == 3

    def test_roundtrip_records(self, log):
        records = log.to_records()
        again = RasLog.from_records(records)
        assert list(again.frame["recid"]) == list(log.frame["recid"])

    def test_empty_log(self):
        log = empty_ras_log()
        assert len(log) == 0
        assert len(log.fatal()) == 0
        with pytest.raises(ValueError):
            log.time_span()

    def test_missing_column_rejected(self, log):
        with pytest.raises(ValueError, match="missing"):
            RasLog(log.frame.drop("errcode"))
