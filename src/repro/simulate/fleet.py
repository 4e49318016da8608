"""Synthesize an N-machine fleet of Intrepid-like traces.

Each machine is one :class:`IntrepidSimulation` run with its own
derived seed, so machines are statistically independent draws from the
same calibrated workload/fault model — the fleet analog of running N
Intrepids side by side. The derivation is a fixed affine step over the
base seed (not ``seed + i``: consecutive base seeds would then share
machines between fleets), so a fleet is fully determined by
``(base profile, n_machines)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.logs.job import JobLog
from repro.logs.ras import RasLog
from repro.obs.trace import maybe_span
from repro.simulate.calibration import CalibrationProfile
from repro.simulate.intrepid import IntrepidSimulation
from repro.store.dataset import ShardedDataset

__all__ = ["FleetMachine", "machine_name", "store_fleet", "synthesize_fleet"]

#: seed stride between fleet machines (a prime far beyond any plausible
#: machine count, so derived seeds never collide within a fleet)
_SEED_STRIDE = 7919


def machine_name(index: int) -> str:
    """Canonical fleet machine name (``intrepid-00``, ``intrepid-01``…)."""
    return f"intrepid-{index:02d}"


@dataclass(frozen=True)
class FleetMachine:
    """One synthesized machine's logs, ready to store."""

    machine: str
    seed: int
    ras_log: RasLog
    job_log: JobLog


def synthesize_fleet(
    profile: CalibrationProfile | None = None,
    n_machines: int = 3,
) -> list[FleetMachine]:
    """Simulate *n_machines* independent traces from *profile*."""
    if n_machines < 1:
        raise ValueError(f"need at least one machine, got {n_machines}")
    base = profile or CalibrationProfile()
    fleet: list[FleetMachine] = []
    for i in range(n_machines):
        seed = base.seed + _SEED_STRIDE * i
        name = machine_name(i)
        with maybe_span("fleet.simulate", machine=name, seed=seed) as sp:
            trace = IntrepidSimulation(replace(base, seed=seed)).run()
            sp.rows = len(trace.ras_log)
        fleet.append(
            FleetMachine(
                machine=name,
                seed=seed,
                ras_log=trace.ras_log,
                job_log=trace.job_log,
            )
        )
    return fleet


def store_fleet(
    root,
    fleet: list[FleetMachine],
    windows: int = 1,
) -> ShardedDataset:
    """Partition a synthesized fleet into a fresh store at *root*."""
    dataset = ShardedDataset.create(root)
    for fm in fleet:
        dataset.add_machine_trace(
            fm.machine, fm.ras_log, fm.job_log, windows=windows
        )
    return dataset
