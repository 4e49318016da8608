"""Atomic health snapshot + the liveness/readiness evaluation.

The daemon writes ``health.json`` once per cycle with
:func:`repro.durable.atomic_write`, so a probe never reads a torn
file. :func:`probe_health` is what ``repro health`` runs: it reads the
snapshot, folds in wall-clock staleness, and maps the result onto
process exit codes —

========== ===== =======================================================
status     exit  meaning
========== ===== =======================================================
healthy      0   snapshot fresh, vitals nominal, no alerts firing
degraded     1   daemon up but impaired (feed degraded, lag/backlog
                 over thresholds, WARN-level alerts firing)
unhealthy    2   no/unreadable/stale snapshot, a critical vital, or an
                 ERROR/FATAL-severity alert firing
========== ===== =======================================================

Two clock domains meet here and must not be conflated: heartbeat ``t``
runs on the **daemon's injectable clock** (fake in tests), while
staleness is judged against **real wall time** via the
``written_unix`` stamp :func:`write_health` adds at write time. A
snapshot whose ``final`` flag is set (clean shutdown) is exempt from
staleness — a finished daemon is not a dead one.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.durable import atomic_write

__all__ = [
    "HEALTH_STATUSES",
    "HealthThresholds",
    "HealthVerdict",
    "evaluate_health",
    "probe_health",
    "read_health",
    "status_exit_code",
    "write_health",
]

HEALTH_STATUSES = ("healthy", "degraded", "unhealthy")

_EXIT_CODES = {"healthy": 0, "degraded": 1, "unhealthy": 2}


def status_exit_code(status: str) -> int:
    """Map a health status onto the probe's process exit code."""
    return _EXIT_CODES.get(status, 2)


def _worse(a: str, b: str) -> str:
    order = {s: i for i, s in enumerate(HEALTH_STATUSES)}
    return a if order.get(a, 2) >= order.get(b, 2) else b


@dataclass(frozen=True)
class HealthThresholds:
    """When a vital crosses from nominal into degraded/unhealthy.

    Defaults are deliberately generous — the alert-rule engine is the
    tunable layer; these are the baked-in floors that hold even with no
    rules configured.
    """

    #: effective-watermark lag behind the producer watermark (seconds)
    max_watermark_lag_s: float = 900.0
    #: rows parked in the reorder buffer
    max_reorder_depth: int = 100_000
    #: fraction of this cycle's arrivals dropped as late
    max_late_drop_rate: float = 0.05
    #: daemon-clock seconds since the last durable checkpoint
    max_checkpoint_age_s: float = 600.0
    #: released-but-unflushed rows awaiting the store
    max_store_backlog: int = 250_000


def evaluate_health(
    heartbeat: dict,
    firing: dict | None = None,
    thresholds: HealthThresholds | None = None,
) -> tuple[str, list[str]]:
    """Fold one heartbeat's vitals + the firing alerts into a status.

    Returns ``(status, reasons)`` where *reasons* names every signal
    that contributed (empty for healthy). Vitals missing from the
    heartbeat are skipped — a daemon that doesn't report a signal is
    not penalized for it.
    """
    th = thresholds or HealthThresholds()
    status = "healthy"
    reasons: list[str] = []

    def flag(level: str, reason: str) -> None:
        nonlocal status
        status = _worse(status, level)
        reasons.append(reason)

    if heartbeat.get("feed_degraded"):
        flag("degraded", "feed degraded (IO retries exhausted)")
    lag = heartbeat.get("watermark_lag_s")
    if lag is not None and lag > th.max_watermark_lag_s:
        flag(
            "degraded",
            f"watermark lag {lag:g}s > {th.max_watermark_lag_s:g}s",
        )
    depth = heartbeat.get("reorder_depth")
    if depth is not None and depth > th.max_reorder_depth:
        flag(
            "degraded",
            f"reorder buffer {depth} rows > {th.max_reorder_depth}",
        )
    rate = heartbeat.get("late_drop_rate")
    if rate is not None and rate > th.max_late_drop_rate:
        flag(
            "degraded",
            f"late-drop rate {rate:.3g} > {th.max_late_drop_rate:g}",
        )
    age = heartbeat.get("checkpoint_age_s")
    if age is not None and age > th.max_checkpoint_age_s:
        # a daemon that cannot persist progress is one crash away from
        # a long replay: that is unhealthy, not merely degraded
        flag(
            "unhealthy",
            f"checkpoint age {age:g}s > {th.max_checkpoint_age_s:g}s",
        )
    backlog = heartbeat.get("store_backlog")
    if backlog is not None and backlog > th.max_store_backlog:
        flag(
            "degraded",
            f"store backlog {backlog} rows > {th.max_store_backlog}",
        )
    for name, state in (firing or {}).items():
        if isinstance(state, dict):  # a health-file record
            severity = state.get("severity", "WARN")
        else:  # a live RuleState
            severity = state.rule.severity
        level = "unhealthy" if severity in ("ERROR", "FATAL") else "degraded"
        flag(level, f"alert firing: {name} ({severity})")
    return status, reasons


def write_health(path: str | Path, snapshot: dict) -> None:
    """Atomically replace the health file with *snapshot*.

    Adds ``written_unix`` (real wall clock) for the staleness check —
    the one field whose clock domain must be the probe's, not the
    daemon's.
    """
    path = Path(path)
    snapshot = dict(snapshot)
    snapshot["written_unix"] = time.time()
    payload = (json.dumps(snapshot, sort_keys=True) + "\n").encode("utf-8")
    atomic_write(path, lambda fh: fh.write(payload))


def read_health(path: str | Path) -> dict | None:
    """The current snapshot, or ``None`` when missing/unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


@dataclass(frozen=True)
class HealthVerdict:
    """What the probe concluded (and why)."""

    status: str
    reasons: tuple
    snapshot: dict | None
    exit_code: int

    def describe(self) -> str:
        lines = [f"status: {self.status}"]
        if self.snapshot is not None:
            hb = self.snapshot.get("heartbeat") or {}
            lines.append(
                f"machine: {self.snapshot.get('machine', '?')}"
                + ("  (final)" if self.snapshot.get("final") else "")
            )
            for key in sorted(hb):
                lines.append(f"  {key}: {hb[key]}")
            firing = self.snapshot.get("firing") or {}
            for name in sorted(firing):
                state = firing[name]
                lines.append(
                    f"  alert firing: {name} "
                    f"[{state.get('severity', 'WARN')}] "
                    f"value={state.get('value')}"
                )
        for reason in self.reasons:
            lines.append(f"reason: {reason}")
        return "\n".join(lines)


def probe_health(
    path: str | Path, max_age_s: float = 60.0, now: float | None = None
) -> HealthVerdict:
    """Judge the snapshot at *path* as a liveness/readiness probe.

    *max_age_s* bounds how old (wall clock) a non-``final`` snapshot
    may be before the daemon behind it is presumed dead.
    """
    snapshot = read_health(path)
    if snapshot is None:
        return HealthVerdict(
            status="unhealthy",
            reasons=(f"no readable health snapshot at {path}",),
            snapshot=None,
            exit_code=status_exit_code("unhealthy"),
        )
    status = snapshot.get("status")
    if status not in HEALTH_STATUSES:
        status, reasons = "unhealthy", [f"bad status {status!r} in snapshot"]
    else:
        reasons = list(snapshot.get("reasons") or ())
    if not snapshot.get("final"):
        now = time.time() if now is None else now
        written = snapshot.get("written_unix")
        age = None if written is None else now - float(written)
        if age is None or age > max_age_s:
            status = "unhealthy"
            reasons.append(
                "snapshot is stale"
                + (f" ({age:.1f}s > {max_age_s:g}s)" if age is not None else "")
                + " — daemon presumed dead"
            )
    return HealthVerdict(
        status=status,
        reasons=tuple(reasons),
        snapshot=snapshot,
        exit_code=status_exit_code(status),
    )
