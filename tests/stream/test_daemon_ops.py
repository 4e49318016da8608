"""Daemon ops integration: heartbeats, alerts, health transitions, and
the RAS-mirror round trip back through the analyzer (self-co-analysis).
"""

import numpy as np
import pytest

from repro.logs import DefectClass, read_ras_log
from repro.obs import probe_health, read_ops_log
from repro.obs.metrics import get_metrics
from repro.stream.daemon import DaemonLoop
from tests.obs.opslog_checks import validate_ops_log
from tests.stream.test_daemon import (
    NO_SLEEP,
    FlakyFS,
    GrowingTrace,
    daemon_config,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    get_metrics().reset()
    yield
    get_metrics().reset()


class TickClock:
    """A fake daemon clock the test advances one second per cycle."""

    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt


def ops_config(tmp_path, gt, **overrides):
    kw = dict(
        ops_dir=str(tmp_path / "ops"),
        sample_interval_s=0.5,  # below the 1 s tick: every cycle samples
    )
    kw.update(overrides)
    return daemon_config(tmp_path, gt, **kw)


def drive(loop, gt, clock):
    while not gt.done:
        gt.grow()
        loop.cycle()
        clock.tick()


class TestOpsPlane:
    def test_ops_dir_complete_and_valid(self, tmp_path):
        gt = GrowingTrace(tmp_path)
        clock = TickClock()
        loop = DaemonLoop(
            ops_config(tmp_path, gt), sleep=NO_SLEEP, clock=clock
        )
        drive(loop, gt, clock)
        loop.result()  # final heartbeat + tail sample
        ops = tmp_path / "ops"
        assert (ops / "ops.jsonl").exists()
        assert (ops / "ops_ras.psv").exists()
        assert (ops / "health.json").exists()
        records = read_ops_log(ops / "ops.jsonl")
        assert validate_ops_log(records) == []
        heartbeats = [r for r in records if r["type"] == "heartbeat"]
        samples = [r for r in records if r["type"] == "sample"]
        assert len(heartbeats) >= loop.cycles
        assert len(samples) > 1
        # one heartbeat per cycle, timestamps on the fake clock
        assert heartbeats[-1]["heartbeat"]["cycle"] == loop.cycles

    def test_final_snapshot_probes_healthy(self, tmp_path):
        gt = GrowingTrace(tmp_path, segments=2)
        clock = TickClock()
        loop = DaemonLoop(
            ops_config(tmp_path, gt), sleep=NO_SLEEP, clock=clock
        )
        drive(loop, gt, clock)
        loop.result()
        verdict = probe_health(tmp_path / "ops" / "health.json")
        assert (verdict.status, verdict.exit_code) == ("healthy", 0)
        assert verdict.snapshot["final"] is True

    def test_feed_outage_transitions_health(self, tmp_path):
        """Deterministic fault injection: a dark feed turns heartbeats
        degraded; recovery turns them back. The exit-code contract the
        CI smoke drives, asserted at the source."""
        gt = GrowingTrace(tmp_path)
        fs = FlakyFS("live_ras")
        clock = TickClock()
        loop = DaemonLoop(
            ops_config(tmp_path, gt), fs=fs, sleep=NO_SLEEP, clock=clock
        )
        gt.grow()
        loop.cycle()  # healthy first cycle
        clock.tick()
        fs.down = True
        for _ in range(2):
            gt.grow()
            loop.cycle()  # RAS feed dark: degraded heartbeats
            clock.tick()
        fs.down = False
        drive(loop, gt, clock)
        loop.cycle()  # pick up the outage backlog
        loop.result()
        records = read_ops_log(tmp_path / "ops" / "ops.jsonl")
        statuses = [
            r["status"] for r in records if r["type"] == "heartbeat"
        ]
        assert statuses[0] == "healthy"
        assert "degraded" in statuses
        assert statuses[-1] == "healthy"
        degraded = [
            r for r in records
            if r["type"] == "heartbeat" and r["status"] == "degraded"
        ]
        assert all(
            any("feed degraded" in reason for reason in r["reasons"])
            for r in degraded
        )

    def test_alert_rule_fires_and_clears(self, tmp_path):
        gt = GrowingTrace(tmp_path)
        clock = TickClock()
        config = ops_config(
            tmp_path, gt,
            alert_rules=(
                "flow: rate(stream.released_rows) > 1 "
                "clear 0.5 severity ERROR",
            ),
        )
        loop = DaemonLoop(config, sleep=NO_SLEEP, clock=clock)
        drive(loop, gt, clock)
        # idle cycles: rate drops to zero, the alert must clear
        for _ in range(3):
            loop.cycle()
            clock.tick()
        loop.result()
        records = read_ops_log(tmp_path / "ops" / "ops.jsonl")
        alerts = [r for r in records if r["type"] == "alert"]
        kinds = [a["kind"] for a in alerts]
        # fired while rows flowed, cleared across the idle stretch; the
        # final drain may legitimately re-fire — but transitions must
        # strictly alternate (the engine cannot flap)
        assert kinds[:2] == ["firing", "cleared"]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        assert alerts[0]["severity"] == "ERROR"
        # an ERROR alert firing makes the heartbeat unhealthy; clearing
        # it brings the status back
        statuses = [
            r["status"] for r in records if r["type"] == "heartbeat"
        ]
        assert "unhealthy" in statuses
        assert "healthy" in statuses[statuses.index("unhealthy"):]


class TestRasMirror:
    def run_daemon(self, tmp_path, **overrides):
        gt = GrowingTrace(tmp_path, segments=3)
        clock = TickClock()
        config = ops_config(tmp_path, gt, machine="bgp", **overrides)
        loop = DaemonLoop(config, sleep=NO_SLEEP, clock=clock)
        drive(loop, gt, clock)
        loop.result()
        return gt

    def test_mirror_is_strict_ras(self, tmp_path):
        self.run_daemon(
            tmp_path,
            alert_rules=("flow: rate(stream.released_rows) > 1",),
        )
        # the strict reader applies every field and cross-record check
        ras = read_ras_log(tmp_path / "ops" / "ops_ras.psv")
        frame = ras.frame
        assert frame.num_rows > 0
        recids = frame["recid"]
        assert (np.diff(recids) > 0).all()
        assert (np.diff(frame["event_time"]) >= 0).all()
        assert set(frame["component"]) == {"MMCS"}
        assert set(frame["subcomponent"]) == {"TELEMETRY"}
        assert set(frame["serialnumber"]) == {"bgp"}
        errcodes = set(frame["errcode"])
        assert "OPS_HEARTBEAT" in errcodes
        assert "OPS_ALERT_FLOW" in errcodes

    def test_mirror_feeds_repro_analyze(self, tmp_path, capsys):
        """Capstone: the system's own operational events run through
        the paper's co-analysis like any machine's RAS log."""
        from repro.cli import main

        gt = self.run_daemon(tmp_path)
        rc = main([
            "analyze",
            "--ras", str(tmp_path / "ops" / "ops_ras.psv"),
            "--job", str(gt.full_job),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CO-ANALYSIS OF RAS LOG AND JOB LOG" in out

    def test_recids_resume_across_restarts(self, tmp_path):
        """A second daemon lifetime on the same ops dir continues the
        mirror's recid/time sequence instead of restarting it."""
        from repro.obs import OpsLog

        log = OpsLog(tmp_path / "ops", machine="bgp")
        log.write_heartbeat({"cycle": 1}, t=100.0, status="healthy")
        log.write_heartbeat({"cycle": 2}, t=101.0, status="healthy")
        again = OpsLog(tmp_path / "ops", machine="bgp")  # "restart"
        again.write_heartbeat({"cycle": 1}, t=50.0, status="healthy")
        ras = read_ras_log(tmp_path / "ops" / "ops_ras.psv")
        recids = ras.frame["recid"]
        assert list(recids) == [1, 2, 3]
        # t=50 would move the mirror backwards: clamped to the last time
        assert (np.diff(ras.frame["event_time"]) >= 0).all()

    def test_torn_final_line_neither_resets_nor_swallows(self, tmp_path):
        """A crash mid-append leaves a torn last line: the next lifetime
        resumes after the last whole row and starts a fresh line, so
        recids stay unique and only the fragment is quarantined."""
        from repro.obs import OpsLog

        log = OpsLog(tmp_path / "ops", machine="bgp")
        for cycle in range(1, 4):
            log.write_heartbeat({"cycle": cycle}, t=100.0 + cycle,
                                status="healthy")
        mirror = tmp_path / "ops" / "ops_ras.psv"
        with open(mirror, "a", encoding="utf-8") as fh:
            fh.write("4|OPS_00000004|MMCS|TELE")
        again = OpsLog(tmp_path / "ops", machine="bgp")
        again.write_heartbeat({"cycle": 4}, t=110.0, status="healthy")
        ras = read_ras_log(mirror, policy="quarantine")
        assert list(ras.frame["recid"]) == [1, 2, 3, 4]
        report = ras.quarantine
        assert report.as_dict() == {"truncated_line": 1}
        (bad,) = report.samples[DefectClass.TRUNCATED_LINE]
        assert (bad.line_no, bad.text) == (5, "4|OPS_00000004|MMCS|TELE")
