"""The one-call co-analysis orchestration (Figure 1, end to end)."""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.bursts import BurstStudy, burst_study
from repro.core.characteristics import (
    InterarrivalStudy,
    MidplaneSkewSummary,
    interarrival_study,
    midplane_profile,
    midplane_skew,
)
from repro.core.classify import ClassificationResult, FailureClassifier
from repro.core.events import FatalEventTable, fatal_event_table
from repro.core.filtering import FilterChain, JobRelatedFilter
from repro.core.filtering.chain import FilterStats
from repro.core.identify import EventTypeIdentifier, IdentificationResult
from repro.core.matching import InterruptionMatcher, MatchResult
from repro.core.observations import Observation, compute_observations
from repro.core.propagation import PropagationStudy, propagation_study
from repro.core.rates import InterruptionRateStudy, interruption_rate_study
from repro.core.vulnerability import (
    VulnerabilityStudy,
    categorize_interruptions,
    vulnerability_study,
)
from repro.frame import Frame
from repro.frame.column import factorize, factorize_many, first_occurrence_mask
from repro.logs.job import JobLog
from repro.logs.ras import RasLog
from repro.obs.trace import maybe_span
from repro.perf import StageTimer, StageTiming


@dataclass(frozen=True)
class StageFailure:
    """One downstream stage that degraded instead of killing the run."""

    stage: str  # e.g. "studies.bursts"
    kind: str  # exception class name
    error: str  # stringified exception

    def describe(self) -> str:
        return f"{self.stage}: {self.kind}: {self.error}"


@dataclass
class CoAnalysisResult:
    """Everything the co-analysis produced, ready for reporting.

    Downstream studies are optional: when the pipeline runs with error
    boundaries (the default), a study that raises is recorded in
    :attr:`stage_failures` and its field is ``None`` — the report
    renders the degradation instead of the run dying.
    """

    # pipeline products
    filter_stats: FilterStats
    events_filtered: FatalEventTable
    events_final: FatalEventTable
    match: MatchResult
    identification: IdentificationResult
    classification: ClassificationResult
    job_related_redundant_ids: set[int]
    interruptions: Frame  # per-job, categorized

    # studies (None when degraded — see stage_failures)
    interarrivals: InterarrivalStudy | None
    rates: InterruptionRateStudy | None
    midplane_profile: Frame | None
    skew: MidplaneSkewSummary | None
    bursts: BurstStudy | None
    propagation: PropagationStudy | None
    vulnerability: VulnerabilityStudy | None

    # context
    num_jobs: int
    num_distinct_jobs: int
    t_start: float
    duration: float
    same_location_resubmission_share: float

    observations: list[Observation] = field(default_factory=list)

    #: per-stage wall/row counters (pipeline stages plus the
    #: ``filter.*`` chain and ``match.*`` kernel sub-stages), in
    #: execution order
    timings: tuple[StageTiming, ...] = ()

    #: the degradation report: downstream stages that raised and were
    #: captured instead of killing the co-analysis
    stage_failures: tuple[StageFailure, ...] = ()

    #: where the analyzed logs came from (a machine name in a fleet run,
    #: a path pair for the CLI); empty for ad-hoc in-memory runs
    source: str = ""

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when at least one downstream stage failed."""
        return bool(self.stage_failures)

    def failure(self, stage: str) -> StageFailure | None:
        """The failure recorded for *stage*, if any."""
        for f in self.stage_failures:
            if f.stage == stage:
                return f
        return None

    @property
    def num_interrupted_jobs(self) -> int:
        return self.interruptions.num_rows

    def num_interrupted_distinct_jobs(self) -> int:
        if not self.interruptions.num_rows:
            return 0
        return self.interruptions.nunique("executable")

    def interruptions_by_category(self) -> dict[int, int]:
        if not self.interruptions.num_rows:
            return {1: 0, 2: 0}
        vc = self.interruptions.value_counts("category")
        out = {1: 0, 2: 0}
        for cat, count in zip(vc["category"], vc["count"]):
            out[int(cat)] = int(count)
        return out

    def observation(self, number: int) -> Observation:
        for obs in self.observations:
            if obs.number == number:
                return obs
        raise KeyError(f"no observation {number}")

    def report(self) -> str:
        from repro.core.report import render_report

        return render_report(self)


@dataclass
class CoAnalysis:
    """Configurable pipeline front end.

    Every stage is injectable for ablation studies; the defaults follow
    the paper's choices (constant-threshold temporal-spatial filtering,
    causality mining per [7], 60 s matching tolerance).
    """

    filters: FilterChain = field(default_factory=FilterChain)
    matcher: InterruptionMatcher = field(default_factory=InterruptionMatcher)
    identifier: EventTypeIdentifier = field(default_factory=EventTypeIdentifier)
    classifier: FailureClassifier = field(default_factory=FailureClassifier)
    job_filter: JobRelatedFilter = field(default_factory=JobRelatedFilter)
    compute_observations_flag: bool = True
    #: with boundaries on (default), a downstream study that raises is
    #: recorded as a StageFailure and the run completes degraded; off
    #: restores fail-fast semantics for debugging
    error_boundaries: bool = True
    #: thread-pool width for the independent downstream studies: 0 = one
    #: per available CPU, 1 = serial. Concurrency engages only with
    #: error boundaries on (fail-fast must raise in serial order), and
    #: results, failures and timings come back in the canonical serial
    #: order either way
    study_workers: int = 0

    def run(
        self, ras_log: RasLog, job_log: JobLog, source: str = ""
    ) -> CoAnalysisResult:
        """Run the full co-analysis over one (RAS log, job log) pair.

        *source* is provenance only (stamped onto the result and shown
        in the report header) — it never affects the analysis.
        """
        timer = StageTimer()
        with timer.stage("extract") as st:
            events_raw = fatal_event_table(ras_log)
            st.rows = len(events_raw)
        with timer.stage("filter") as st:
            events_filtered = self.filters.apply(events_raw)
            st.rows = len(events_filtered)
        assert self.filters.stats is not None
        timer.extend(self.filters.timings)

        with timer.stage("match") as st:
            match = self.matcher.match(
                events_filtered, job_log, raw_events=self.filters.temporal_table
            )
            st.rows = match.pairs.num_rows
        timer.extend(match.timings)

        return self.complete(
            events_filtered=events_filtered,
            match=match,
            job_log=job_log,
            filter_stats=self.filters.stats,
            window=_window(ras_log, job_log),
            timer=timer,
            source=source,
        )

    def complete(
        self,
        *,
        events_filtered: FatalEventTable,
        match: MatchResult,
        job_log: JobLog,
        filter_stats: FilterStats,
        window: tuple[float, float],
        timer: StageTimer | None = None,
        source: str = "",
    ) -> CoAnalysisResult:
        """Everything downstream of matching: identify → classify →
        job-filter → studies → observations.

        Split out of :meth:`run` so the streaming runner
        (:mod:`repro.stream`) can feed its incrementally-accumulated
        filtered events, match and job log through the *identical*
        downstream code — the K-increment bit-identity guarantee then
        only has to hold up to this boundary. *window* is the
        ``(t_start, duration)`` pair :func:`_window` derives from the
        logs (streaming tracks the spans across increments instead).
        """
        if timer is None:
            timer = StageTimer()
        t_start, duration = window

        with timer.stage("identify") as st:
            identification = self.identifier.identify(match.type_cases)
            st.rows = match.type_cases.num_rows
        from repro.core.jobindex import CompletedRunIndex

        with timer.stage("classify") as st:
            clean_runs = CompletedRunIndex(
                job_log, set(int(j) for j in match.interrupted_job_ids())
            )
            classification = self.classifier.classify(
                events_filtered,
                match.pairs,
                match.type_cases,
                nonfatal_types=set(identification.nonfatal_types()),
                clean_runs=clean_runs,
            )
        with timer.stage("job_filter") as st:
            event_rows = _first_job_per_event(match.pairs)
            redundant = self.job_filter.redundant_ids(
                event_rows, job_log, classification.origins, clean_runs=clean_runs
            )
            events_final = events_filtered.drop_ids(redundant)
            st.rows = len(events_final)

        failures: list[StageFailure] = []

        def guarded(stage: str, fn, fallback=None):
            """Run one optional downstream stage behind an error boundary.

            The stage body runs under its own span either way, so a
            captured failure still shows up in the trace as an
            ``status=error`` span even though the run completes.
            """
            if not self.error_boundaries:
                with maybe_span(stage):
                    return fn()
            try:
                with maybe_span(stage):
                    return fn()
            except Exception as exc:  # noqa: BLE001 - the boundary's job
                failures.append(
                    StageFailure(
                        stage, type(exc).__name__, str(exc) or repr(exc)
                    )
                )
                return fallback

        with timer.stage("studies") as st:
            interruptions = guarded(
                "studies.categorize",
                lambda: categorize_interruptions(
                    match.interruptions, classification
                ),
                fallback=_empty_categorized(match.interruptions),
            )
            studies, workers_used = self._run_studies(
                events_filtered=events_filtered,
                events_final=events_final,
                job_log=job_log,
                match=match,
                interruptions=interruptions,
                t_start=t_start,
                duration=duration,
                failures=failures,
                timer=timer,
            )
            interarrivals = studies["interarrivals"]
            rates = studies["rates"]
            profile = studies["midplane_profile"]
            skew = studies["skew"]
            bursts = studies["bursts"]
            propagation = studies["propagation"]
            vulnerability = studies["vulnerability"]
            st.rows = interruptions.num_rows
            if workers_used > 1:
                st.note = f"{workers_used} workers"

        result = CoAnalysisResult(
            filter_stats=filter_stats,
            events_filtered=events_filtered,
            events_final=events_final,
            match=match,
            identification=identification,
            classification=classification,
            job_related_redundant_ids=redundant,
            interruptions=interruptions,
            interarrivals=interarrivals,
            rates=rates,
            midplane_profile=profile,
            skew=skew,
            bursts=bursts,
            propagation=propagation,
            vulnerability=vulnerability,
            num_jobs=job_log.num_jobs,
            num_distinct_jobs=job_log.num_distinct_jobs(),
            t_start=t_start,
            duration=duration,
            same_location_resubmission_share=_same_location_share(
                job_log, interruptions
            ),
            source=source,
        )
        result.stage_failures = tuple(failures)
        if self.compute_observations_flag:
            with timer.stage("observations"):
                result.observations = guarded(
                    "observations",
                    lambda: compute_observations(result),
                    fallback=[],
                )
                result.stage_failures = tuple(failures)
        result.timings = timer.timings
        return result

    # ------------------------------------------------------------------

    def _run_studies(
        self,
        *,
        events_filtered,
        events_final,
        job_log,
        match,
        interruptions,
        t_start,
        duration,
        failures,
        timer,
    ) -> tuple[dict, int]:
        """Run the seven downstream studies, concurrently when allowed.

        The studies fall into two dependency waves: five are mutually
        independent (interarrivals, midplane profile, bursts,
        propagation, vulnerability) and two consume a wave-one product
        (rates needs interarrivals' MTBF, skew needs the profile). With
        ``study_workers`` > 1 and error boundaries on, wave one runs on
        a thread pool; either way the failure list and the per-study
        ``studies.<name>`` timings are assembled in the canonical serial
        order, so degraded reports are deterministic regardless of
        thread scheduling.
        """
        wave1 = [
            (
                "interarrivals",
                lambda: interarrival_study(events_filtered, events_final),
            ),
            (
                "midplane_profile",
                lambda: midplane_profile(events_final, job_log),
            ),
            (
                "bursts",
                lambda: burst_study(interruptions, t_start, duration),
            ),
            (
                "propagation",
                lambda: propagation_study(match.pairs, len(events_filtered)),
            ),
            (
                "vulnerability",
                lambda: vulnerability_study(
                    job_log, interruptions, events_final
                ),
            ),
        ]

        def attempt(name, fn):
            t0 = perf_counter()
            try:
                with maybe_span(f"studies.{name}"):
                    result = fn()
                return result, None, perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - boundary's job
                if not self.error_boundaries:
                    raise
                return None, exc, perf_counter() - t0

        from repro.parallel.ingest import resolve_workers

        n = resolve_workers(self.study_workers)
        concurrent = self.error_boundaries and n > 1
        outcomes: dict[str, tuple] = {}
        if concurrent:
            import contextvars
            from concurrent.futures import ThreadPoolExecutor

            # pool threads do not inherit ContextVars; a per-task
            # context copy carries the active tracer and the parent
            # span into each study so its span nests under "studies"
            with ThreadPoolExecutor(max_workers=min(n, len(wave1))) as pool:
                futures = [
                    (
                        name,
                        pool.submit(
                            contextvars.copy_context().run, attempt, name, fn
                        ),
                    )
                    for name, fn in wave1
                ]
                outcomes = {name: fut.result() for name, fut in futures}
        else:
            for name, fn in wave1:
                outcomes[name] = attempt(name, fn)

        # wave two: cheap follow-ons fed by wave-one products
        interarrivals = outcomes["interarrivals"][0]
        mtbf = (
            interarrivals.after.weibull.mean
            if interarrivals is not None and interarrivals.after is not None
            else float("nan")
        )
        outcomes["rates"] = attempt(
            "rates", lambda: interruption_rate_study(interruptions, mtbf=mtbf)
        )
        profile = outcomes["midplane_profile"][0]
        if profile is not None:
            outcomes["skew"] = attempt("skew", lambda: midplane_skew(profile))
        else:
            outcomes["skew"] = None  # skipped, not failed

        studies: dict[str, object] = {}
        order = (
            "interarrivals",
            "rates",
            "midplane_profile",
            "skew",
            "bursts",
            "propagation",
            "vulnerability",
        )
        for name in order:
            outcome = outcomes[name]
            if outcome is None:  # skew skipped on degraded profile
                studies[name] = None
                failures.append(
                    StageFailure(
                        "studies.skew",
                        "Skipped",
                        "input stage studies.midplane_profile degraded",
                    )
                )
                continue
            result, exc, wall = outcome
            if exc is not None:
                failures.append(
                    StageFailure(
                        f"studies.{name}",
                        type(exc).__name__,
                        str(exc) or repr(exc),
                    )
                )
            studies[name] = result
            timer.record(f"studies.{name}", wall)
        return studies, (n if concurrent else 1)


def _empty_categorized(interruptions: Frame) -> Frame:
    """Typed empty fallback matching categorize_interruptions' schema."""
    return interruptions.head(0).with_column(
        "category", np.array([], dtype=np.int64)
    )


def _first_job_per_event(pairs: Frame) -> Frame:
    """One row per interrupting event (its earliest job), for the
    job-related filter."""
    if pairs.num_rows == 0:
        return pairs
    ordered = pairs.sort_by("event_time", "job_id")
    return ordered.filter(first_occurrence_mask(ordered["event_id"]))


def _window(ras_log: RasLog, job_log: JobLog) -> tuple[float, float]:
    """``(t_start, duration)`` covering both logs' time spans."""
    spans = []
    if len(ras_log):
        spans.append(ras_log.time_span())
    if len(job_log):
        spans.append(job_log.time_span())
    if not spans:
        return 0.0, 0.0
    t0 = min(a for a, _ in spans)
    t1 = max(b for _, b in spans)
    return t0, max(t1 - t0, 1.0)


def _same_location_share(job_log: JobLog, interruptions: Frame) -> float:
    """Of jobs resubmitted after an interruption, the share landing on
    the same partition (Obs. 3's 57.4%).

    Vectorized as a sorted merge: interruption ends and job starts are
    interleaved per executable, and a running maximum carries the most
    recent interruption forward to each later start — no per-job scan.
    """
    if interruptions.num_rows == 0:
        return 0.0
    exe_i = interruptions["executable"]
    end_i = interruptions["job_end"].astype(np.float64)
    loc_i = interruptions["job_location"]
    # one interruption per (executable, end): last row wins
    codes, _ = factorize_many([exe_i, end_i])
    keep_last = first_occurrence_mask(codes[::-1])[::-1]
    exe_i, end_i, loc_i = exe_i[keep_last], end_i[keep_last], loc_i[keep_last]

    jobs = job_log.frame
    exe_j = jobs["executable"]
    start_j = jobs["start_time"]
    loc_j = jobs["location"]
    n_i, n_j = len(exe_i), len(exe_j)
    if n_j == 0:
        return 0.0

    exe_codes, _ = factorize(np.concatenate([exe_i.astype(object), exe_j]))
    key = exe_codes
    times = np.concatenate([end_i, start_j])
    # interruptions sort before starts at the same instant (end <= start
    # counts as "before"), so flag 0 = interruption, 1 = job start
    flag = np.concatenate(
        [np.zeros(n_i, dtype=np.int64), np.ones(n_j, dtype=np.int64)]
    )
    order = np.lexsort((flag, times, key))
    # forward-fill the merged position of the latest interruption seen;
    # positions are monotone in merged order, so a running max is a fill
    seq = np.arange(len(order), dtype=np.int64)
    carrier = np.where(flag[order] == 0, seq, -1)
    prev_pos = np.maximum.accumulate(carrier)

    is_job = flag[order] == 1
    job_pos = order[is_job] - n_i          # row into the job arrays
    valid = prev_pos[is_job] >= 0
    # merged position → row into the interruption arrays (interruptions
    # occupy the first n_i concatenated slots); invalid rows pin to 0
    prev_i = np.where(valid, order[np.where(valid, prev_pos[is_job], 0)], 0)
    # the carried interruption must belong to the same executable
    valid &= key[prev_i] == key[order[is_job]]
    # count only prompt resubmissions (within a day) as retries
    valid &= start_j[job_pos] - end_i[prev_i] <= 86400.0
    total = int(valid.sum())
    if not total:
        return 0.0
    same = int(
        (loc_j[job_pos[valid]] == loc_i[prev_i[valid]]).sum()
    )
    return same / total
