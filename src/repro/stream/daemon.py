"""The live-analysis daemon: poll → increment → checkpoint, crash-safe.

This is where the streaming pieces become an operable service:

* two :class:`~repro.stream.source.Feed` tailers follow the growing
  RAS and job files (retry/backoff inside, rotation-aware, degraded
  instead of dead when a feed stays down);
* every cycle's arrivals go through the
  :class:`~repro.stream.lateness.BoundedLatenessStream`, whose released
  (stable, sorted) prefix is both fed to the strict core and queued as
  a **store backlog** for the fleet store;
* a :class:`CheckpointRotator` persists the whole state — core runner,
  reorder buffer, feed cursors, backlog — into two alternating slot
  directories with an atomically replaced ``CURRENT`` pointer, so the
  newest *complete* checkpoint is always recoverable and a corrupt slot
  (torn write, bit rot — :func:`~repro.stream.checkpoint.validate_checkpoint`
  decides) falls back to the previous one;
* store appends happen **after** the checkpoint that contains their
  backlog, and resume drops any backlog the store envelope already
  covers — so a crash on either side of the append is exactly-once in
  effect;
* a :class:`Supervisor` restarts a crashed loop from the last valid
  checkpoint with bounded attempts and backoff.

The recovery claim — resume from any kill point is bit-identical to an
uninterrupted run — is not an aspiration; ``tests/stream/test_daemon_fuzz.py``
drives seeded fault schedules (:mod:`repro.faults.io`) and kill points
through this module and compares final results with
:func:`~repro.core.equivalence.diff_results`.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.pipeline import CoAnalysis, CoAnalysisResult
from repro.durable import atomic_write
from repro.frame import Frame, concat
from repro.logs.job import JobLog, empty_job_log
from repro.logs.ras import RasLog, empty_ras_log
from repro.obs.metrics import get_metrics
from repro.stream.checkpoint import (
    load_checkpoint,
    load_extras,
    save_checkpoint,
    validate_checkpoint,
)
from repro.stream.lateness import BoundedLatenessStream, LateRecordSink
from repro.stream.source import FEED_DEGRADED, Feed, RetryPolicy

__all__ = [
    "CheckpointRotator",
    "DaemonConfig",
    "DaemonLoop",
    "DaemonSummary",
    "Supervisor",
]

_SLOTS = ("slot-a", "slot-b")
_TABLES = ("ras", "job")


class CheckpointRotator:
    """Two alternating checkpoint slots behind an atomic pointer.

    A save always writes the slot the ``CURRENT`` pointer does *not*
    name, then flips the pointer (:func:`repro.durable.atomic_write`).
    The previous checkpoint therefore survives every save in full; if the
    newest one is damaged — validated before any resume —
    :meth:`load_latest` falls back to it and reports why.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.problems: list[str] = []

    @property
    def _pointer(self) -> Path:
        return self.root / "CURRENT"

    def current_slot(self) -> str | None:
        try:
            name = self._pointer.read_text(encoding="utf-8").strip()
        except OSError:
            return None
        return name if name in _SLOTS else None

    def save(
        self,
        runner,
        extra_state: dict | None = None,
        extra_frames: dict[str, Frame] | None = None,
    ) -> Path:
        current = self.current_slot()
        target = _SLOTS[0] if current != _SLOTS[0] else _SLOTS[1]
        slot_dir = self.root / target
        # wipe the stale slot so no orphaned frame dir from an older
        # layout can shadow the new index
        if slot_dir.exists():
            shutil.rmtree(slot_dir)
        save_checkpoint(
            runner, slot_dir, extra_state=extra_state, extra_frames=extra_frames
        )
        pointer = f"{target}\n".encode("utf-8")
        atomic_write(self._pointer, lambda fh: fh.write(pointer))
        get_metrics().counter("daemon.checkpoints").inc()
        return slot_dir

    def load_latest(
        self, pipeline: CoAnalysis | None = None
    ) -> tuple | None:
        """``(runner, extra_state, extra_frames, slot_dir)`` or None.

        Tries the current slot, then the other; a slot must pass
        :func:`validate_checkpoint` (hashes included) before it is
        loaded. Findings are kept on :attr:`problems` and counted in
        ``daemon.checkpoint.fallbacks``.
        """
        self.problems = []
        current = self.current_slot()
        order = [s for s in (current,) if s] + [
            s for s in _SLOTS if s != current
        ]
        for slot in order:
            slot_dir = self.root / slot
            if not (slot_dir / "checkpoint.json").exists():
                continue
            found = validate_checkpoint(slot_dir, verify_hashes=True)
            if found:
                self.problems.extend(f"{slot}: {p}" for p in found)
                get_metrics().counter("daemon.checkpoint.fallbacks").inc()
                continue
            runner = load_checkpoint(slot_dir, pipeline=pipeline)
            extra_state, extra_frames = load_extras(slot_dir)
            return runner, extra_state, extra_frames, slot_dir
        return None


@dataclass
class DaemonConfig:
    """Everything a daemon run needs, checkpoint-independent."""

    ras_path: str
    job_path: str
    checkpoint_root: str
    allowed_lateness: float = 0.0
    late_sink_dir: str | None = None
    poll_interval_s: float = 1.0
    #: checkpoint (and flush to the store) every N data-bearing cycles
    checkpoint_every: int = 1
    #: exit after this many consecutive idle cycles (None = run forever)
    idle_exit: int | None = None
    store_root: str | None = None
    machine: str = "live"
    policy: str = "quarantine"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0
    #: live telemetry plane (repro.obs.live): ops directory for the
    #: sampler/heartbeat/alert logs + health snapshot; None = off
    ops_dir: str | None = None
    #: alert-rule lines (repro.obs.alerts grammar)
    alert_rules: tuple = ()
    #: metric sampling window (daemon-clock seconds)
    sample_interval_s: float = 5.0


@dataclass(frozen=True)
class DaemonSummary:
    """What one daemon run did (returned by :meth:`DaemonLoop.run`)."""

    cycles: int
    increments: int
    degraded_increments: int
    released_rows: int
    late_dropped: dict
    checkpoints: int
    store_windows: int
    stopped_by: str  # "idle" | "signal" | "stop"


class DaemonLoop:
    """One poll→increment→checkpoint loop over two live feeds.

    All wall-clock interaction (``clock``, ``sleep``) and the
    filesystem facade (``fs``, see :mod:`repro.faults.io`) are
    injectable; ``crash_hook(phase, cycle)`` is the fuzz suite's kill
    point — it may raise :class:`~repro.faults.io.InjectedCrash` at
    ``poll`` / ``ingested`` / ``pre_checkpoint`` / ``post_checkpoint``
    / ``post_flush`` boundaries.
    """

    def __init__(
        self,
        config: DaemonConfig,
        pipeline: CoAnalysis | None = None,
        fs=None,
        clock=time.monotonic,
        sleep=time.sleep,
        crash_hook=None,
    ):
        self.config = config
        self.pipeline = pipeline if pipeline is not None else CoAnalysis()
        self.clock = clock
        self.sleep = sleep
        self.crash_hook = crash_hook or (lambda phase, cycle: None)
        self.rotator = CheckpointRotator(config.checkpoint_root)
        sink = (
            LateRecordSink(config.late_sink_dir)
            if config.late_sink_dir
            else None
        )
        self.bls = BoundedLatenessStream(
            pipeline=self.pipeline,
            allowed_lateness=config.allowed_lateness,
            sink=sink,
        )
        self.feeds = {
            "ras": Feed(
                config.ras_path, "ras", policy=config.policy,
                retry=config.retry, fs=fs, clock=clock, sleep=sleep,
                seed=config.seed,
            ),
            "job": Feed(
                config.job_path, "job", policy=config.policy,
                retry=config.retry, fs=fs, clock=clock, sleep=sleep,
                seed=config.seed + 1,
            ),
        }
        self.store = None
        if config.store_root:
            from repro.store.dataset import ShardedDataset

            root = Path(config.store_root)
            if (root / "manifest.json").exists():
                self.store = ShardedDataset.open(root)
            else:
                self.store = ShardedDataset.create(root)
        self.telemetry = None
        if config.ops_dir:
            from repro.obs.live import LiveTelemetry

            self.telemetry = LiveTelemetry(
                config.ops_dir,
                rules=config.alert_rules,
                interval_s=config.sample_interval_s,
                machine=config.machine,
                clock=clock,
            )
        self._late_seen = 0  # cumulative late-drops at the last heartbeat
        self._backlog: dict[str, list[Frame]] = {t: [] for t in _TABLES}
        # per-feed newest key seen; the producer watermark is their MIN,
        # so the slowest feed gates release and a lagging feed's records
        # are never declared late by the faster one's progress
        self._feed_max = {t: float("-inf") for t in _TABLES}
        self.cycles = 0
        self.increments = 0
        self.degraded_increments = 0
        self.released_rows = 0
        self.checkpoints = 0
        self.store_windows = 0
        self._since_checkpoint = 0
        self._idle_streak = 0
        self._stop = False
        self._stopped_by = "stop"
        self._last_checkpoint_at: float | None = None
        self._resume()

    # -- resume ---------------------------------------------------------

    def _resume(self) -> None:
        loaded = self.rotator.load_latest(pipeline=self.pipeline)
        if loaded is None:
            return
        runner, extra, frames, _slot = loaded
        self.bls.inner = runner
        daemon = extra.get("daemon", {})
        self.bls.restore(
            extra["lateness"],
            {
                "ras": frames.get("lat_ras", Frame()),
                "job": frames.get("lat_job", Frame()),
            },
        )
        for table in _TABLES:
            self.feeds[table].restore(extra["feeds"][table])
            backlog = frames.get(f"back_{table}", Frame())
            self._backlog[table] = [backlog] if backlog.num_rows else []
        self.cycles = int(daemon.get("cycles", 0))
        self.increments = int(daemon.get("increments", 0))
        self.degraded_increments = int(daemon.get("degraded_increments", 0))
        self.released_rows = int(daemon.get("released_rows", 0))
        self.store_windows = int(daemon.get("store_windows", 0))
        for table, value in daemon.get("feed_max", {}).items():
            self._feed_max[table] = float(value)
        self._drop_covered_backlog()
        get_metrics().counter("daemon.resumes").inc()

    def _drop_covered_backlog(self) -> None:
        """Discard backlog the store already holds (crashed post-append)."""
        if self.store is None:
            return
        from repro.store.dataset import TIME_COLUMN

        shards = self.store.manifest.select(machine=self.config.machine)
        for table in _TABLES:
            frames = self._backlog[table]
            if not frames:
                continue
            stored = [s.time_max for s in shards if s.table == table and s.rows]
            if not stored:
                continue
            keys = concat(frames)[TIME_COLUMN[table]]
            if len(keys) and float(keys.max()) <= max(stored):
                self._backlog[table] = []
                get_metrics().counter(
                    "daemon.backlog.already_stored", table=table
                ).inc()

    # -- the loop -------------------------------------------------------

    def request_stop(self, reason: str = "signal") -> None:
        """Ask the loop to checkpoint and exit at the next boundary.

        Safe to call from a signal handler: it only sets flags.
        """
        self._stop = True
        self._stopped_by = reason

    def run(self) -> DaemonSummary:
        while not self._stop:
            self.cycle()
            if (
                self.config.idle_exit is not None
                and self._idle_streak >= self.config.idle_exit
            ):
                self._stopped_by = "idle"
                break
            if not self._stop:
                self.sleep(self.config.poll_interval_s)
        self.checkpoint()
        self.flush_store()
        self._heartbeat(False, 0, final=True)
        return DaemonSummary(
            cycles=self.cycles,
            increments=self.increments,
            degraded_increments=self.degraded_increments,
            released_rows=self.released_rows,
            late_dropped=dict(self.bls.late_dropped),
            checkpoints=self.checkpoints,
            store_windows=self.store_windows,
            stopped_by=self._stopped_by,
        )

    def cycle(self) -> None:
        """One poll → ingest → (maybe) checkpoint+flush round."""
        self.cycles += 1
        chunks = {t: self.feeds[t].poll() for t in _TABLES}
        self.crash_hook("poll", self.cycles)
        degraded = any(c.status == FEED_DEGRADED for c in chunks.values())
        rows = sum(len(c.log) for c in chunks.values())
        metrics = get_metrics()
        if degraded:
            self.degraded_increments += 1
            metrics.counter("daemon.increments", status="degraded").inc()
        if rows == 0:
            self._idle_streak += 1
            if not degraded:
                metrics.counter("daemon.increments", status="idle").inc()
            self._observe_gauges(chunks)
            self._heartbeat(degraded, rows)
            return
        self._idle_streak = 0
        for table, chunk in chunks.items():
            if len(chunk.log):
                self._feed_max[table] = max(
                    self._feed_max[table], float(chunk.key_times.max())
                )
        # multi-input watermark: the slowest feed's newest key bounds
        # what both feeds can still deliver in order, and nextafter
        # makes that newest record itself releasable once the lateness
        # horizon catches up (watermarks are exclusive)
        slowest = min(self._feed_max.values())
        watermark = self.bls.producer_watermark
        if np.isfinite(slowest):
            watermark = max(watermark, float(np.nextafter(slowest, np.inf)))
        update = self.bls.ingest(
            chunks["ras"].log, chunks["job"].log, watermark
        )
        self.crash_hook("ingested", self.cycles)
        self.increments += 1
        if not degraded:
            metrics.counter("daemon.increments", status="ok").inc()
        released = {
            "ras": update.released_ras.frame,
            "job": update.released_job.frame,
        }
        n_released = sum(f.num_rows for f in released.values())
        self.released_rows += n_released
        for table, frame in released.items():
            if frame.num_rows:
                self._backlog[table].append(frame)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.config.checkpoint_every:
            self.crash_hook("pre_checkpoint", self.cycles)
            self.checkpoint()
            self.crash_hook("post_checkpoint", self.cycles)
            self.flush_store()
            self.crash_hook("post_flush", self.cycles)
        self._observe_gauges(chunks)
        self._heartbeat(degraded, rows)

    # -- persistence ----------------------------------------------------

    def checkpoint(self) -> Path:
        buffers = self.bls.buffer_frames()
        extra_frames = {
            "lat_ras": buffers["ras"],
            "lat_job": buffers["job"],
        }
        for table in _TABLES:
            frames = self._backlog[table]
            extra_frames[f"back_{table}"] = (
                concat(frames)
                if len(frames) > 1
                else (frames[0] if frames else Frame())
            )
        extra_state = {
            "lateness": self.bls.state_dict(),
            "feeds": {t: self.feeds[t].state_dict() for t in _TABLES},
            "daemon": {
                "cycles": self.cycles,
                "increments": self.increments,
                "degraded_increments": self.degraded_increments,
                "released_rows": self.released_rows,
                "store_windows": self.store_windows,
                "feed_max": dict(self._feed_max),
            },
        }
        slot = self.rotator.save(
            self.bls.inner, extra_state=extra_state, extra_frames=extra_frames
        )
        self.checkpoints += 1
        self._since_checkpoint = 0
        self._last_checkpoint_at = self.clock()
        return slot

    def flush_store(self) -> None:
        """Append the checkpointed backlog to the fleet store.

        Runs strictly after :meth:`checkpoint`, so a crash here at
        worst re-runs the append on resume — which
        :meth:`_drop_covered_backlog` then skips. Both tables go into
        one window (one manifest write): all-or-nothing.
        """
        if self.store is None:
            self._clear_backlog()
            return
        logs = {}
        for table in _TABLES:
            frames = self._backlog[table]
            merged = (
                concat(frames)
                if len(frames) > 1
                else (frames[0] if frames else Frame())
            )
            logs[table] = merged
        if not any(f.num_rows for f in logs.values()):
            return
        ras = (
            RasLog(logs["ras"]) if logs["ras"].num_rows else empty_ras_log()
        )
        job = (
            JobLog(logs["job"]) if logs["job"].num_rows else empty_job_log()
        )
        machine = self.config.machine
        if machine in self.store.machines():
            self.store.append_machine_window(machine, ras, job)
        else:
            self.store.add_machine_trace(machine, ras, job, windows=1)
        self.store_windows += 1
        self._clear_backlog()

    def _clear_backlog(self) -> None:
        self._backlog = {t: [] for t in _TABLES}

    def result(self) -> CoAnalysisResult:
        """Drain, checkpoint, flush, then finalize (terminal)."""
        if self.bls.inner._result is None:
            ras, job = self.bls.drain()
            for table, frame in (("ras", ras.frame), ("job", job.frame)):
                if frame.num_rows:
                    self._backlog[table].append(frame)
            self.released_rows += len(ras) + len(job)
            self.checkpoint()
            self.flush_store()
            self._heartbeat(False, 0, final=True)
        return self.bls.result()

    def _heartbeat(
        self, degraded: bool, arrived_rows: int, final: bool = False
    ) -> None:
        """Feed this cycle's vitals to the live telemetry plane.

        Runs after checkpoint/flush so the ages and backlogs it reports
        are this cycle's *surviving* debt, not its peak. The telemetry
        object derives a health status (vitals + firing alerts), writes
        the heartbeat + any alert transitions to the ops log, and
        atomically replaces the health snapshot.
        """
        if self.telemetry is None:
            return
        late_total = sum(self.bls.late_dropped.values())
        late_now = late_total - self._late_seen
        self._late_seen = late_total
        lag = self.bls.producer_watermark - self.bls.effective_watermark
        heartbeat = {
            "cycle": self.cycles,
            "feed_degraded": bool(degraded),
            "watermark_lag_s": lag if np.isfinite(lag) else None,
            "reorder_depth": self.bls.buffered_rows,
            "late_drop_rate": (
                late_now / arrived_rows if arrived_rows else 0.0
            ),
            "checkpoint_age_s": (
                max(self.clock() - self._last_checkpoint_at, 0.0)
                if self._last_checkpoint_at is not None
                else None
            ),
            "store_backlog": sum(
                f.num_rows
                for frames in self._backlog.values()
                for f in frames
            ),
        }
        self.telemetry.record_cycle(
            heartbeat, now=self.clock(), final=final
        )

    def _observe_gauges(self, chunks) -> None:
        m = get_metrics()
        if np.isfinite(self.bls.effective_watermark):
            m.monotonic_gauge("stream.watermark").set(
                self.bls.effective_watermark
            )
        if self._last_checkpoint_at is not None:
            m.gauge("daemon.checkpoint.age_s").set(
                max(self.clock() - self._last_checkpoint_at, 0.0)
            )
        for table, chunk in chunks.items():
            if chunk.status == FEED_DEGRADED:
                m.counter("daemon.feed.degraded", table=table).inc()


class Supervisor:
    """Bounded-restart wrapper: rebuild the loop from its checkpoint.

    *make_loop* builds a fresh :class:`DaemonLoop` (which resumes from
    the rotator on construction). An ``Exception`` escaping the loop is
    a crash: the supervisor backs off and rebuilds, up to
    *max_restarts* times. ``BaseException`` — a real signal, or an
    :class:`~repro.faults.io.InjectedCrash` kill point — passes
    through: only a process boundary survives those.
    """

    def __init__(
        self,
        make_loop,
        max_restarts: int = 3,
        backoff_s: float = 0.5,
        sleep=time.sleep,
    ):
        self.make_loop = make_loop
        self.max_restarts = max_restarts
        self.backoff_s = backoff_s
        self.sleep = sleep
        self.restarts = 0

    def run(self) -> DaemonSummary:
        while True:
            loop = self.make_loop()
            try:
                return loop.run()
            except Exception:
                self.restarts += 1
                get_metrics().counter("daemon.restarts").inc()
                if self.restarts > self.max_restarts:
                    raise
                self.sleep(self.backoff_s * self.restarts)


def run_daemon(
    config: DaemonConfig,
    pipeline: CoAnalysis | None = None,
    max_restarts: int = 3,
    install_signals: bool = True,
) -> DaemonSummary:
    """Build, supervise and run a daemon until it stops.

    With *install_signals*, SIGTERM/SIGINT ask the loop for a clean
    checkpoint-and-exit instead of killing it mid-cycle (handlers are
    restored afterwards; only valid from the main thread).
    """
    import signal

    active: dict[str, DaemonLoop] = {}

    def make_loop() -> DaemonLoop:
        loop = DaemonLoop(config, pipeline=pipeline)
        active["loop"] = loop
        return loop

    previous = {}
    if install_signals:

        def _handler(signum, frame):
            loop = active.get("loop")
            if loop is not None:
                loop.request_stop("signal")

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[sig] = signal.signal(sig, _handler)
            except ValueError:  # not the main thread
                break
    try:
        return Supervisor(make_loop, max_restarts=max_restarts).run()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
