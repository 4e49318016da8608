"""The live daemon: growing-file end-to-end equivalence, degraded
feeds, checkpoint rotation with corruption fallback, supervised
restarts, and exactly-once store appends across crashes."""

import errno
import os

import numpy as np
import pytest

from repro.core.equivalence import diff_results, frames_equal
from repro.core.pipeline import CoAnalysis
from repro.faults.io import InjectedCrash
from repro.logs import read_job_log, read_ras_log, write_job_log, write_ras_log
from repro.stream.daemon import (
    CheckpointRotator,
    DaemonConfig,
    DaemonLoop,
    Supervisor,
)
from repro.stream.source import RetryPolicy
from tests.stream.conftest import make_jobs, make_ras

NO_SLEEP = lambda s: None  # noqa: E731
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)


class GrowingTrace:
    """A (RAS, job) pair of live files grown in line-aligned segments,
    plus the batch reference computed from the *re-read* full files (the
    BGP text format truncates to microseconds; equivalence must compare
    against what the daemon could actually read)."""

    def __init__(self, tmp_path, n_ras=240, n_job=40, segments=6, seed=13):
        ras = make_ras(n_ras, seed=seed)
        job = make_jobs(ras, n_job, seed=seed + 1)
        self.full_ras = tmp_path / "full_ras.psv"
        self.full_job = tmp_path / "full_job.psv"
        write_ras_log(ras, self.full_ras)
        write_job_log(job, self.full_job)
        self.live_ras = tmp_path / "live_ras.psv"
        self.live_job = tmp_path / "live_job.psv"
        self._lines = {
            "ras": self.full_ras.read_text().splitlines(keepends=True),
            "job": self.full_job.read_text().splitlines(keepends=True),
        }
        self.segments = segments
        self.step = 0

    def grow(self):
        self.step = min(self.step + 1, self.segments)
        for table, live in (("ras", self.live_ras), ("job", self.live_job)):
            lines = self._lines[table]
            upto = len(lines) * self.step // self.segments
            live.write_text("".join(lines[:upto]), encoding="utf-8")

    @property
    def done(self):
        return self.step >= self.segments

    def batch(self):
        return CoAnalysis().run(
            read_ras_log(self.full_ras), read_job_log(self.full_job)
        )


def daemon_config(tmp_path, gt, **overrides):
    kw = dict(
        ras_path=str(gt.live_ras),
        job_path=str(gt.live_job),
        checkpoint_root=str(tmp_path / "ckpt"),
        allowed_lateness=60.0,
        poll_interval_s=0.0,
        checkpoint_every=1,
        retry=FAST_RETRY,
    )
    kw.update(overrides)
    return DaemonConfig(**kw)


def drive(loop, gt):
    """Grow the files one segment per cycle until exhausted."""
    while not gt.done:
        gt.grow()
        loop.cycle()


class TestEndToEnd:
    def test_growing_files_converge_to_batch(self, tmp_path):
        gt = GrowingTrace(tmp_path)
        loop = DaemonLoop(daemon_config(tmp_path, gt), sleep=NO_SLEEP)
        drive(loop, gt)
        assert loop.increments > 1  # genuinely incremental, not one gulp
        assert loop.checkpoints >= 1
        assert diff_results(loop.result(), gt.batch()) == []
        assert loop.bls.late_dropped == {"ras": 0, "job": 0}

    def test_live_store_appends_reassemble_files(self, tmp_path):
        from repro.store import ShardedDataset

        gt = GrowingTrace(tmp_path)
        config = daemon_config(
            tmp_path, gt, store_root=str(tmp_path / "store"), machine="bgp"
        )
        loop = DaemonLoop(config, sleep=NO_SLEEP)
        drive(loop, gt)
        loop.result()
        assert loop.store_windows > 1  # windows appended live, not once
        store = ShardedDataset.open(tmp_path / "store")
        assert frames_equal(
            store.load_ras("bgp").frame, read_ras_log(gt.full_ras).frame
        )
        assert frames_equal(
            store.load_job("bgp").frame, read_job_log(gt.full_job).frame
        )

    def test_run_exits_on_idle_with_final_checkpoint(self, tmp_path):
        gt = GrowingTrace(tmp_path, segments=1)
        gt.grow()
        config = daemon_config(tmp_path, gt, idle_exit=2)
        loop = DaemonLoop(config, sleep=NO_SLEEP)
        summary = loop.run()
        assert summary.stopped_by == "idle"
        assert summary.checkpoints >= 1
        assert (tmp_path / "ckpt" / "CURRENT").exists()

    def test_request_stop_checkpoints_and_exits(self, tmp_path):
        """The SIGTERM path: stop flag → final checkpoint → summary."""
        gt = GrowingTrace(tmp_path, segments=1)
        gt.grow()
        loop = DaemonLoop(daemon_config(tmp_path, gt), sleep=NO_SLEEP)
        loop.request_stop("signal")
        summary = loop.run()
        assert summary.stopped_by == "signal"
        assert summary.checkpoints >= 1
        rotator = CheckpointRotator(tmp_path / "ckpt")
        assert rotator.current_slot() in ("slot-a", "slot-b")


class FlakyFS:
    """EIO on a path substring while switched on; real IO otherwise."""

    def __init__(self, needle):
        self.needle = needle
        self.down = False

    def _check(self, path):
        if self.down and self.needle in str(path):
            raise OSError(errno.EIO, "injected outage", str(path))

    def stat(self, path):
        self._check(path)
        return os.stat(path)

    def open(self, path):
        self._check(path)
        return open(path, "rb")


class TestDegradedFeed:
    def test_outage_degrades_then_recovers_without_loss(self, tmp_path):
        """A feed down past the retry budget marks increments DEGRADED;
        the daemon keeps running and converges once the feed is back."""
        gt = GrowingTrace(tmp_path)
        fs = FlakyFS("live_ras")
        loop = DaemonLoop(
            daemon_config(tmp_path, gt), fs=fs, sleep=NO_SLEEP
        )
        gt.grow()
        loop.cycle()  # healthy first cycle
        fs.down = True
        for _ in range(2):
            gt.grow()
            loop.cycle()  # RAS dark, job still flowing
        fs.down = False
        drive(loop, gt)
        loop.cycle()  # one more healthy poll to pick up the backlog
        assert loop.degraded_increments == 2
        from repro.obs.metrics import get_metrics

        assert get_metrics().value("daemon.feed.degraded", table="ras")
        assert diff_results(loop.result(), gt.batch()) == []
        assert loop.bls.late_dropped == {"ras": 0, "job": 0}


def small_runner():
    ras = make_ras(40, seed=21)
    job = make_jobs(ras, 8, seed=22)
    from repro.stream import StreamingCoAnalysis

    runner = StreamingCoAnalysis()
    hi = max(
        float(ras.frame["event_time"].max()),
        float(job.frame["start_time"].max()),
    )
    runner.ingest(ras, job, watermark=float(np.nextafter(hi, np.inf)))
    return runner


class TestCheckpointRotation:
    def test_saves_alternate_slots(self, tmp_path):
        rotator = CheckpointRotator(tmp_path / "ckpt")
        first = rotator.save(small_runner())
        second = rotator.save(small_runner())
        assert {first.name, second.name} == {"slot-a", "slot-b"}
        assert rotator.current_slot() == second.name

    def test_corrupt_current_slot_falls_back(self, tmp_path):
        rotator = CheckpointRotator(tmp_path / "ckpt")
        rotator.save(small_runner())
        newest = rotator.save(small_runner())
        victim = newest / "survivors.npz"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        loaded = rotator.load_latest()
        assert loaded is not None
        _, _, _, slot_dir = loaded
        assert slot_dir.name != newest.name
        assert rotator.problems
        assert any("hash-mismatch" in p for p in rotator.problems)

    def test_both_slots_corrupt_returns_none(self, tmp_path):
        rotator = CheckpointRotator(tmp_path / "ckpt")
        for _ in range(2):
            slot = rotator.save(small_runner())
            (slot / "checkpoint.json").write_text("{torn", encoding="utf-8")
        assert rotator.load_latest() is None
        assert len(rotator.problems) == 2

    def test_empty_root_loads_nothing(self, tmp_path):
        assert CheckpointRotator(tmp_path / "ckpt").load_latest() is None


class _Stub:
    def __init__(self, exc=None, result="done"):
        self.exc = exc
        self.result = result

    def run(self):
        if self.exc is not None:
            raise self.exc
        return self.result


class TestSupervisor:
    def test_restarts_until_success(self, tmp_path):
        loops = iter(
            [_Stub(RuntimeError("boom")), _Stub(RuntimeError("boom")), _Stub()]
        )
        sup = Supervisor(lambda: next(loops), max_restarts=3, sleep=NO_SLEEP)
        assert sup.run() == "done"
        assert sup.restarts == 2

    def test_restart_budget_exhausted_reraises(self):
        sup = Supervisor(
            lambda: _Stub(RuntimeError("boom")), max_restarts=2, sleep=NO_SLEEP
        )
        with pytest.raises(RuntimeError):
            sup.run()
        assert sup.restarts == 3  # initial run + 2 restarts all failed

    def test_injected_crash_passes_through(self):
        """Kill points are BaseException: the supervisor must NOT eat
        them — only a process restart (resume from checkpoint) may."""
        sup = Supervisor(
            lambda: _Stub(InjectedCrash(7, "x")), max_restarts=99,
            sleep=NO_SLEEP,
        )
        with pytest.raises(InjectedCrash):
            sup.run()
        assert sup.restarts == 0


class TestCrashResume:
    def one_shot(self, phase_target, cycle_target):
        state = {"armed": True}

        def hook(phase, cycle):
            if state["armed"] and phase == phase_target and cycle >= cycle_target:
                state["armed"] = False
                raise InjectedCrash(cycle, phase_target)

        return hook

    def test_post_checkpoint_crash_is_store_exactly_once(self, tmp_path):
        """Crash between checkpoint and store flush: resume drops the
        already-covered backlog — no duplicated rows, none missing."""
        from repro.store import ShardedDataset

        gt = GrowingTrace(tmp_path)
        config = daemon_config(
            tmp_path, gt, store_root=str(tmp_path / "store"), machine="bgp"
        )
        loop = DaemonLoop(
            config,
            sleep=NO_SLEEP,
            crash_hook=self.one_shot("post_checkpoint", 3),
        )
        with pytest.raises(InjectedCrash):
            drive(loop, gt)
        resumed = DaemonLoop(config, sleep=NO_SLEEP)
        assert resumed.cycles > 0  # state really came from the checkpoint
        drive(resumed, gt)
        assert diff_results(resumed.result(), gt.batch()) == []
        store = ShardedDataset.open(tmp_path / "store")
        assert frames_equal(
            store.load_ras("bgp").frame, read_ras_log(gt.full_ras).frame
        )

    def test_resume_restores_counters_and_cursors(self, tmp_path):
        gt = GrowingTrace(tmp_path)
        config = daemon_config(tmp_path, gt)
        loop = DaemonLoop(
            config, sleep=NO_SLEEP, crash_hook=self.one_shot("post_flush", 2)
        )
        with pytest.raises(InjectedCrash):
            drive(loop, gt)
        resumed = DaemonLoop(config, sleep=NO_SLEEP)
        assert resumed.cycles == loop.cycles
        assert resumed.increments == loop.increments
        assert (
            resumed.feeds["ras"].tailer.state.offset
            == loop.feeds["ras"].tailer.state.offset
        )
