"""Seeded IO fault injection for the live-streaming robustness drills.

The tailing source (:mod:`repro.stream.source`) reads growing log files
through a tiny filesystem facade — ``stat``, ``open``, ``read`` — so a
test can swap the real calls for this module's :class:`FaultyFS`, which
replays a deterministic :class:`FaultPlan` against them:

* ``EIO`` — the call raises ``OSError(EIO)`` (a flaky NFS mount);
* ``SHORT_READ`` — ``read`` returns fewer bytes than asked (interrupted
  syscall, writer mid-flush);
* ``STALL`` — the call blocks for ``payload`` seconds before
  completing (hung storage); under an injected clock this advances
  virtual time, so retry deadlines are exercised without real sleeps;
* ``ROTATE`` — the target file is atomically replaced by a byte-equal
  copy with a **new inode** (copytruncate-style log rotation mid-read;
  the tailer must detect the fingerprint change and re-read);
* ``TRUNCATE`` — the target file is truncated to ``payload`` bytes (a
  writer crash discarding its tail);
* ``CRASH`` — the call raises :class:`InjectedCrash`, which deliberately
  derives from ``BaseException`` so ordinary ``except Exception``
  recovery paths cannot swallow a kill point — only the fuzz harness
  (or the supervisor's process boundary) catches it.

Faults are keyed by the facade's **operation counter**: the plan fires
fault *k* when the ``op_index``-th matching call happens, which makes a
(seed → schedule) mapping fully deterministic and replayable. The
kill-and-resume fuzz suite (``tests/stream/test_daemon_fuzz.py``) walks
seeded schedules and proves the daemon recovers to bit-identical
results from any of them.
"""

from __future__ import annotations

import enum
import errno
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.durable import atomic_write

__all__ = [
    "FaultKind",
    "IOFault",
    "FaultPlan",
    "InjectedCrash",
    "FaultyFS",
    "FaultyFile",
    "RealFS",
]


class FaultKind(enum.Enum):
    """What an injected IO fault does to the intercepted call."""

    EIO = "eio"
    SHORT_READ = "short_read"
    STALL = "stall"
    ROTATE = "rotate"
    TRUNCATE = "truncate"
    CRASH = "crash"

    def __str__(self) -> str:
        return self.value


class InjectedCrash(BaseException):
    """A kill point: simulates the process dying mid-operation.

    Derives from ``BaseException`` so the daemon's ``except Exception``
    error boundaries cannot absorb it — exactly like a real ``kill -9``,
    the only thing that survives is what was already durably on disk.
    """

    def __init__(self, op_index: int, path: str = ""):
        self.op_index = op_index
        self.path = path
        super().__init__(f"injected crash at io op {op_index} ({path})")


@dataclass(frozen=True)
class IOFault:
    """One scheduled fault: fires on the ``op_index``-th matching call."""

    op_index: int
    kind: FaultKind
    #: only operations whose path contains this substring are hit
    #: (empty string matches every path)
    path_substr: str = ""
    #: kind-specific knob: stall seconds, short-read byte cap,
    #: truncate-to length
    payload: float = 0.0

    def matches(self, op_index: int, path: str) -> bool:
        return op_index == self.op_index and self.path_substr in path


@dataclass
class FaultPlan:
    """A deterministic schedule of :class:`IOFault` entries."""

    faults: list[IOFault] = field(default_factory=list)

    #: fault mix ``generate`` draws from when none is given (CRASH is
    #: opt-in: kill points change control flow, not just data flow)
    DEFAULT_KINDS = (
        FaultKind.EIO,
        FaultKind.SHORT_READ,
        FaultKind.STALL,
        FaultKind.ROTATE,
    )

    @classmethod
    def generate(
        cls,
        seed: int,
        n_faults: int = 8,
        op_range: tuple[int, int] = (1, 200),
        kinds: tuple[FaultKind, ...] | None = None,
        path_substr: str = "",
    ) -> "FaultPlan":
        """A seeded random schedule (same seed → same schedule)."""
        rng = np.random.default_rng(seed)
        pool = kinds if kinds is not None else cls.DEFAULT_KINDS
        ops = sorted(
            int(op)
            for op in rng.integers(op_range[0], op_range[1], n_faults)
        )
        faults = []
        for op in ops:
            kind = pool[int(rng.integers(0, len(pool)))]
            payload = 0.0
            if kind is FaultKind.STALL:
                payload = float(rng.uniform(0.01, 0.5))
            elif kind is FaultKind.SHORT_READ:
                payload = float(int(rng.integers(1, 64)))
            faults.append(
                IOFault(
                    op_index=op,
                    kind=kind,
                    path_substr=path_substr,
                    payload=payload,
                )
            )
        return cls(faults=faults)

    def take(self, op_index: int, path: str) -> IOFault | None:
        """The fault due at this operation, consumed at most once."""
        for i, fault in enumerate(self.faults):
            if fault.matches(op_index, path):
                del self.faults[i]
                return fault
        return None


class RealFS:
    """The pass-through filesystem facade the tailer uses by default."""

    def stat(self, path: str | Path) -> os.stat_result:
        return os.stat(path)

    def open(self, path: str | Path) -> "FaultyFile":
        return open(path, "rb")  # noqa: SIM115 - caller closes


class FaultyFile:
    """A binary file handle whose reads obey the owning plan."""

    def __init__(self, fh, fs: "FaultyFS", path: str):
        self._fh = fh
        self._fs = fs
        self._path = path

    def seek(self, offset: int) -> int:
        return self._fh.seek(offset)

    def read(self, size: int = -1) -> bytes:
        fault = self._fs._next_fault(self._path)
        if fault is not None:
            short = self._fs._apply(fault, self._path)
            if short is not None and size != 0:
                cap = max(1, int(short))
                size = cap if size < 0 else min(size, cap)
        return self._fh.read(size)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FaultyFS:
    """A filesystem facade that injects a :class:`FaultPlan`.

    Every intercepted call (``stat``, ``open``, each ``read``) advances
    one shared operation counter; faults fire when their ``op_index``
    comes up. ``sleep`` is injectable so stalls advance a virtual clock
    in tests instead of wall time.
    """

    def __init__(
        self,
        plan: FaultPlan | None = None,
        sleep=time.sleep,
    ):
        self.plan = plan if plan is not None else FaultPlan()
        self.ops = 0
        self.injected: list[tuple[int, FaultKind, str]] = []
        self._sleep = sleep

    # ------------------------------------------------------------------

    def _next_fault(self, path: str) -> IOFault | None:
        self.ops += 1
        return self.plan.take(self.ops, path)

    def _apply(self, fault: IOFault, path: str) -> float | None:
        """Carry out *fault*; returns a short-read cap when applicable."""
        self.injected.append((self.ops, fault.kind, path))
        if fault.kind is FaultKind.CRASH:
            raise InjectedCrash(self.ops, path)
        if fault.kind is FaultKind.EIO:
            raise OSError(errno.EIO, "injected EIO", path)
        if fault.kind is FaultKind.STALL:
            self._sleep(fault.payload)
            return None
        if fault.kind is FaultKind.ROTATE:
            self._rotate(path)
            return None
        if fault.kind is FaultKind.TRUNCATE:
            self._truncate(path, int(fault.payload))
            return None
        if fault.kind is FaultKind.SHORT_READ:
            return fault.payload
        return None  # pragma: no cover - exhaustive above

    # ------------------------------------------------------------------

    def stat(self, path: str | Path) -> os.stat_result:
        path = str(path)
        fault = self._next_fault(path)
        if fault is not None:
            self._apply(fault, path)
        return os.stat(path)

    def open(self, path: str | Path) -> FaultyFile:
        path = str(path)
        fault = self._next_fault(path)
        if fault is not None:
            self._apply(fault, path)
        return FaultyFile(open(path, "rb"), self, path)

    # ------------------------------------------------------------------

    @staticmethod
    def _rotate(path: str) -> None:
        """Replace *path* with a byte-equal copy under a fresh inode."""
        if not os.path.exists(path):
            return
        with open(path, "rb") as src:
            atomic_write(path, lambda out: shutil.copyfileobj(src, out))

    @staticmethod
    def _truncate(path: str, length: int) -> None:
        if not os.path.exists(path):
            return
        size = os.path.getsize(path)
        os.truncate(path, min(length, size))
