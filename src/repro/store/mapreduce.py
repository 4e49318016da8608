"""Map-reduce co-analysis over a sharded fleet dataset.

**Map**: each machine's logs are reassembled from its shards (pruned to
the query range) and pushed through the unchanged batch
:class:`~repro.core.pipeline.CoAnalysis` — one task per machine, fanned
out over a thread pool with per-task ``contextvars`` copies so spans
nest under the fleet root, and a per-machine error boundary so one bad
machine degrades the fleet report instead of killing it.

**Reduce**: the per-machine observation lists are merged into
:class:`FleetObservation` verdicts — a holds tally across machines plus
a percentile-bootstrap CI (``stats/bootstrap.py``) over each shared
numeric measured quantity, quantifying how much a headline number
wobbles across the fleet. The bootstrap RNG is seeded from
``(seed, obs number, key index)`` so the reduce is deterministic for a
fixed fleet regardless of map scheduling.

Because the map step consumes bit-identically reassembled frames, a
one-machine fleet over a partitioned trace reproduces the batch
pipeline's observations exactly — the equivalence the store tests pin.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.observations import Observation
from repro.core.pipeline import CoAnalysis, CoAnalysisResult
from repro.frame.frame import Frame
from repro.obs.metrics import get_metrics
from repro.obs.trace import maybe_span
from repro.parallel.ingest import resolve_workers
from repro.stats.bootstrap import BootstrapCI, bootstrap_ci
from repro.store.dataset import ShardedDataset

__all__ = [
    "FleetObservation",
    "FleetResult",
    "MachineAnalysis",
    "analyze_fleet",
]


@dataclass(frozen=True)
class MachineAnalysis:
    """One machine's map outcome: a result or a captured failure."""

    machine: str
    result: CoAnalysisResult | None
    error: str | None = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class FleetObservation:
    """One numbered observation merged across the fleet."""

    number: int
    title: str
    #: machines where the observation held / was computable / ran at all
    holds_count: int
    available_count: int
    total: int
    #: bootstrap CI over each numeric quantity shared by every
    #: available machine's observation
    measured: dict[str, BootstrapCI] = field(default_factory=dict)

    @property
    def consensus(self) -> bool:
        """Holds on a strict majority of the machines that computed it."""
        return (
            self.available_count > 0
            and self.holds_count * 2 > self.available_count
        )

    def summary(self) -> str:
        verdict = (
            "SKIPPED"
            if not self.available_count
            else "HOLDS" if self.consensus else "DIVERGES"
        )
        parts = ", ".join(
            f"{k}={ci.estimate:.4g} [{ci.low:.4g}, {ci.high:.4g}]"
            for k, ci in self.measured.items()
        )
        tally = f"{self.holds_count}/{self.available_count}"
        return f"Obs.{self.number:>2} [{verdict} {tally}] {self.title}: {parts}"


@dataclass
class FleetResult:
    """Everything the fleet analysis produced."""

    machines: list[MachineAnalysis]
    observations: list[FleetObservation]
    time_range: tuple[float, float] | None
    seed: int
    workers: int

    @property
    def ok_machines(self) -> list[MachineAnalysis]:
        return [m for m in self.machines if m.ok]

    @property
    def degraded(self) -> bool:
        return any(not m.ok for m in self.machines)

    def summary_frame(self) -> Frame:
        """One row per healthy machine with its headline numbers.

        Built through ``Frame.from_rows`` with explicit dtype hints so
        an all-failed fleet still yields a typed empty frame (and int
        counts stay int64 — the shard-merge dtype regression).
        """
        rows = []
        for ma in self.ok_machines:
            r = ma.result
            mtbf_h = float("nan")
            shape = float("nan")
            if r.interarrivals is not None and r.interarrivals.after is not None:
                mtbf_h = r.interarrivals.after.weibull.mean / 3600.0
                shape = r.interarrivals.after.weibull.shape
            rows.append(
                {
                    "machine": ma.machine,
                    "jobs": int(r.num_jobs),
                    "interrupted_jobs": int(r.num_interrupted_jobs),
                    "events_filtered": int(r.events_filtered.frame.num_rows),
                    "events_final": int(r.events_final.frame.num_rows),
                    "holds": sum(
                        1 for o in r.observations if o.available and o.holds
                    ),
                    "mtbf_h": mtbf_h,
                    "weibull_shape": shape,
                }
            )
        return Frame.from_rows(
            rows,
            columns=[
                "machine",
                "jobs",
                "interrupted_jobs",
                "events_filtered",
                "events_final",
                "holds",
                "mtbf_h",
                "weibull_shape",
            ],
            dtypes={
                "machine": object,
                "jobs": np.int64,
                "interrupted_jobs": np.int64,
                "events_filtered": np.int64,
                "events_final": np.int64,
                "holds": np.int64,
                "mtbf_h": np.float64,
                "weibull_shape": np.float64,
            },
        )

    def report(self) -> str:
        from repro.viz.fleet import render_fleet_report

        return render_fleet_report(self)


# ----------------------------------------------------------------------
# map


def _analyze_machine(
    dataset: ShardedDataset,
    machine: str,
    time_range: tuple[float, float] | None,
    pipeline_factory,
    mmap: bool,
) -> MachineAnalysis:
    metrics = get_metrics()
    try:
        with maybe_span("fleet.machine", machine=machine) as sp:
            ras = dataset.load_ras(machine, time_range=time_range, mmap=mmap)
            job = dataset.load_job(machine, time_range=time_range, mmap=mmap)
            result = pipeline_factory().run(ras, job, source=machine)
            sp.rows = len(ras)
        metrics.counter("fleet.machines", status="ok").inc()
        return MachineAnalysis(
            machine=machine, result=result, wall_s=sp.wall_s
        )
    except Exception as exc:  # noqa: BLE001 - per-machine boundary
        metrics.counter("fleet.machines", status="failed").inc()
        return MachineAnalysis(
            machine=machine,
            result=None,
            error=f"{type(exc).__name__}: {exc}",
            wall_s=sp.wall_s,
        )


# ----------------------------------------------------------------------
# reduce


def _numeric(value) -> bool:
    """True for real numbers a bootstrap can resample (bools are
    verdicts, not measurements)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _merge_observations(
    analyses: list[MachineAnalysis], seed: int
) -> list[FleetObservation]:
    ok = [m for m in analyses if m.ok]
    per_number: dict[int, list[Observation]] = {}
    titles: dict[int, str] = {}
    for ma in ok:
        for obs in ma.result.observations:
            per_number.setdefault(obs.number, []).append(obs)
            titles.setdefault(obs.number, obs.title)

    merged: list[FleetObservation] = []
    for number in sorted(per_number):
        group = per_number[number]
        available = [o for o in group if o.available]
        # a key merges when every available machine reports it as a
        # finite number — partial keys would bias the CI toward the
        # machines that happened to report them
        keys: list[str] = []
        if available:
            for key in available[0].measured:
                values = [o.measured.get(key) for o in available]
                if all(_numeric(v) and np.isfinite(v) for v in values):
                    keys.append(key)
        measured: dict[str, BootstrapCI] = {}
        for k_index, key in enumerate(keys):
            samples = np.array(
                [float(o.measured[key]) for o in available], dtype=np.float64
            )
            rng = np.random.default_rng([seed, number, k_index])
            measured[key] = bootstrap_ci(samples, rng=rng)
        merged.append(
            FleetObservation(
                number=number,
                title=titles[number],
                holds_count=sum(1 for o in available if o.holds),
                available_count=len(available),
                total=len(group),
                measured=measured,
            )
        )
    return merged


# ----------------------------------------------------------------------
# driver


def analyze_fleet(
    dataset: ShardedDataset,
    machines: list[str] | None = None,
    time_range: tuple[float, float] | None = None,
    workers: int = 0,
    seed: int = 2011,
    pipeline_factory=None,
    mmap: bool = True,
) -> FleetResult:
    """Run the co-analysis over every machine in *dataset* and merge.

    *workers* follows the repo convention (0 = one per CPU, 1 =
    serial); results come back in machine order regardless of
    scheduling, and the reduce is seeded, so the whole fleet result is
    deterministic.
    """
    if machines is None:
        machines = dataset.machines()
    if not machines:
        raise ValueError("no machines to analyze")
    pipeline_factory = pipeline_factory or CoAnalysis
    n = min(resolve_workers(workers), len(machines))

    with maybe_span(
        "fleet.map", machines=len(machines), workers=n
    ):
        if n > 1:
            # pool threads do not inherit ContextVars; per-task context
            # copies carry the tracer and parent span (the study-wave
            # pattern in core.pipeline)
            with ThreadPoolExecutor(max_workers=n) as pool:
                futures = [
                    pool.submit(
                        contextvars.copy_context().run,
                        _analyze_machine,
                        dataset,
                        machine,
                        time_range,
                        pipeline_factory,
                        mmap,
                    )
                    for machine in machines
                ]
                analyses = [f.result() for f in futures]
        else:
            analyses = [
                _analyze_machine(
                    dataset, machine, time_range, pipeline_factory, mmap
                )
                for machine in machines
            ]

    with maybe_span("fleet.reduce", machines=len(analyses)):
        observations = _merge_observations(analyses, seed)

    return FleetResult(
        machines=analyses,
        observations=observations,
        time_range=time_range,
        seed=seed,
        workers=n,
    )
