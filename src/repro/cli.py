"""Command-line interface: simulate traces, corrupt them, analyze logs.

Eleven subcommands::

    repro-coanalysis simulate --out-dir traces/ [--scale 0.2] [--seed 7]
    repro-coanalysis corrupt --src traces/ras.log --out traces/ras_bad.log
    repro-coanalysis analyze --ras traces/ras.log --job traces/job.log \
        [--on-bad-record {strict,quarantine,skip}] [--max-bad-records N] \
        [--workers N] [--cache-dir DIR] [--no-cache] \
        [--telemetry-out run.jsonl]
    repro-coanalysis demo [--scale 0.1] [--workers N]
    repro-coanalysis fleet [--machines N] [--windows K] [--out-dir store/] \
        [--time-range T0:T1] [--check-equivalence]
    repro-coanalysis stream [--ras ... --job ... | --scale 0.1] \
        [--increments K] [--checkpoint-dir DIR] [--resume] \
        [--validate-checkpoint DIR] [--check-equivalence]
    repro-coanalysis daemon --ras live_ras.psv --job live_job.psv \
        --checkpoint-root ckpt/ [--allowed-lateness S] [--store DIR] \
        [--idle-exit N] [--inject-faults SEED] [--check-equivalence]
    repro-coanalysis feed --copy ras.psv:live_ras.psv [--steps N] \
        [--interval S]
    repro-coanalysis health --ops-dir ops/ [--max-age S] [--history]
    repro-coanalysis dash --ops-dir ops/ [--once | --interval S] [--prom]
    repro-coanalysis trace run.jsonl [--top N] [--validate]

``simulate`` writes the (RAS, job) pair as pipe-delimited text in the
Table II / Table III field layout; ``corrupt`` injects the cataloged
defect taxonomy into a written log (resilience drills and the CI smoke
test); ``analyze`` runs the full §IV–§VI co-analysis on any pair of
logs in that format (including real, dirty ones — see
``--on-bad-record``); ``demo`` does both in memory and prints the
report. ``analyze`` exits with status 2 when ingestion rejects or
aborts on a damaged log. ``fleet`` synthesizes (or reopens) an
N-machine sharded store (:mod:`repro.store`), fans the co-analysis out
per machine, and merges observations across the fleet with bootstrap
CIs; ``--check-equivalence`` asserts the sharded run reproduces the
batch pipeline bit-for-bit, and a degraded fleet exits 1.

``stream`` replays a trace through the incremental runner
(:mod:`repro.stream`): the trace is cut into K watermarked increments
and each is ingested against the open frontier only, printing rolling
observations per increment; ``--checkpoint-dir`` persists resumable
state after every increment (``--resume`` picks it back up), and
``--check-equivalence`` asserts the streamed result is bit-identical
to the one-shot batch pipeline (exit 3 on divergence).

``--telemetry-out PATH`` (or ``REPRO_TELEMETRY_DIR``) records the run's
own telemetry — the hierarchical span tree, the metrics registry and
the observation verdicts — as a schema-versioned JSONL manifest (see
:mod:`repro.obs`); ``trace`` renders such a manifest as an indented
span tree plus a hot-stage summary, or schema-checks it with
``--validate``.

``daemon --ops-dir`` turns on the live telemetry plane
(:mod:`repro.obs.live`): windowed metric samples, per-cycle heartbeats
and alert-rule transitions stream into an append-only ops log (JSONL
plus a RAS-schema mirror that ``analyze`` ingests like any machine's
RAS log), and an atomic ``health.json`` snapshot tracks the derived
status. ``health`` probes that snapshot — exit 0 healthy / 1 degraded
/ 2 unhealthy, wall-clock staleness counting as dead — and ``dash``
renders the ops log as a refreshing ASCII dashboard or Prometheus
text (``--prom``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

from repro.core import CoAnalysis, InterruptionMatcher
from repro.core.filtering import (
    CausalityFilter,
    FilterChain,
    SpatialFilter,
    TemporalFilter,
)
from repro.core.matching import DEFAULT_TOLERANCE
from repro.logs import (
    IngestAbortError,
    IngestError,
    IngestPolicy,
    read_job_log,
    read_ras_log,
    write_job_log,
    write_ras_log,
)
from repro.logs.quarantine import INGEST_MODES


def _number(kind, name: str, lo=0, hi=None, lo_open: bool = False):
    """An argparse type parsing *kind* (``int`` or ``float``) in [lo, hi].

    *hi* None leaves the range unbounded above; *lo_open* (with *hi*)
    excludes *lo* itself. An out-of-range value is a usage error (exit
    2) naming *name* and the bound; unparseable text gets argparse's
    own "invalid <kind> value".
    """
    if hi is not None:
        bound = f"within {'(' if lo_open else '['}{lo}, {hi}]"
    elif lo == 0:
        bound = "non-negative"
    else:
        bound = f"at least {lo}"

    def parse(text: str):
        value = kind(text)
        if not ((value > lo if lo_open else value >= lo)
                and (hi is None or value <= hi)):
            raise argparse.ArgumentTypeError(
                f"{name} must be {bound}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__
    return parse


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scale", type=_number(float, "scale", hi=1, lo_open=True),
        default=0.2, help="trace volume multiplier in (0, 1] (default 0.2)",
    )
    p.add_argument("--seed", type=int, default=2011)


def _add_analysis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tolerance", type=_number(float, "tolerance"),
        default=DEFAULT_TOLERANCE,
        help="event-job matching tolerance in seconds "
             "(default %(default).0f, the paper's §IV value)",
    )
    # the filters' constructor defaults, surfaced in --help
    p.add_argument(
        "--temporal-threshold", type=_number(float, "temporal threshold"),
        default=TemporalFilter.threshold,
        help="temporal filter chain-collapse threshold in seconds "
             "(default %(default).0f; DESIGN §5 sweeps it)",
    )
    p.add_argument(
        "--spatial-threshold", type=_number(float, "spatial threshold"),
        default=SpatialFilter.threshold,
        help="spatial filter chain-collapse threshold in seconds "
             "(default %(default).0f)",
    )
    p.add_argument(
        "--causal-window", type=_number(float, "causal window"),
        default=CausalityFilter.window,
        help="causality-rule mining window in seconds "
             "(default %(default).0f)",
    )


def _add_workers_arg(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument(
        "--workers", type=_number(int, "workers"), default=1, metavar="N",
        help=f"{what}: 0 = one per available CPU, 1 = serial (default); "
             "output is bit-identical at any width",
    )


#: what ``--workers`` widens for the commands that parse log files
_LOG_WORKERS = (
    "RAS-log parse processes and study threads (the job log is always "
    "parsed serially)"
)


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
        metavar="DIR",
        help="content-addressed parse cache directory: reruns over "
             "unchanged logs skip parsing (default $REPRO_CACHE_DIR)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="ignore the parse cache even when --cache-dir is set",
    )


def _add_ingest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--on-bad-record", choices=INGEST_MODES, default="strict",
        help="bad-record policy: strict raises on the first defect "
             "(default), quarantine diverts bad lines into a bounded "
             "report, skip drops them keeping counts only",
    )
    p.add_argument(
        "--max-bad-records", type=_number(int, "max bad records"),
        default=None, metavar="N",
        help="abort ingestion once more than N records are bad "
             "(quarantine/skip modes)",
    )
    p.add_argument(
        "--max-bad-fraction", type=_number(float, "bad fraction", hi=1),
        default=None, metavar="F",
        help="abort ingestion when more than fraction F of the log is "
             "bad (checked at end of file)",
    )


def _ingest_policy(args: argparse.Namespace) -> IngestPolicy:
    return IngestPolicy(
        mode=args.on_bad_record,
        max_bad_records=args.max_bad_records,
        max_bad_fraction=args.max_bad_fraction,
    )


def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="write the run's telemetry manifest (span tree, metrics, "
             "observations) as JSONL to PATH; defaults to a timestamped "
             "file under $REPRO_TELEMETRY_DIR when that is set",
    )


#: the telemetry run :func:`main` opened around the command, if any
_RUN: ContextVar["_TelemetryRun | None"] = ContextVar(
    "repro_cli_run", default=None
)


class _TelemetryRun:
    """One CLI run's telemetry: tracer, metrics and the manifest write.

    The registry is process-wide and counters are monotone, so the run
    takes a ``mark()`` baseline at construction and writes a delta
    snapshot — back-to-back runs in one process each report their own
    work instead of the second manifest carrying cumulative totals
    (and unlike the old ``reset()``, a concurrent run's instruments
    are not wiped out from under it).
    """

    def __init__(self, out: Path, config: dict):
        from repro.obs import Tracer, get_metrics

        self.out = out
        self.config = config
        self.tracer = Tracer(sample_resources=True)
        self.metrics = get_metrics()
        self._baseline = self.metrics.mark()
        self.observations: list = []

    def finish(self) -> Path:
        from repro.obs import write_manifest

        return write_manifest(
            self.out,
            tracer=self.tracer,
            metrics=self.metrics,
            metrics_since=self._baseline,
            config=self.config,
            observations=self.observations,
        )


def _telemetry(args: argparse.Namespace) -> _TelemetryRun | None:
    """The run's telemetry context, or None when not requested."""
    if not hasattr(args, "telemetry_out"):
        return None  # the command records no telemetry
    out = args.telemetry_out
    if not out:
        directory = os.environ.get("REPRO_TELEMETRY_DIR")
        if not directory:
            return None
        out = Path(directory) / (
            f"run-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}.jsonl"
        )
    config = {
        key: value
        for key, value in vars(args).items()
        if key != "func" and not callable(value)
    }
    return _TelemetryRun(Path(out), config)


@contextmanager
def _tracing(args: argparse.Namespace, run: _TelemetryRun | None):
    """Trace the command: under the telemetry run, else only ``analyze``.

    ``analyze`` always traces: its ingest and analysis share one tracer,
    so the ``--timings`` rows are the very spans a ``--telemetry-out``
    manifest records. No other command starts a tracer of its own: a
    daemon's spans would pile up for as long as it runs.
    """
    if run is not None:
        token = _RUN.set(run)
        try:
            with run.tracer.activate(root="run"):
                yield
        finally:
            _RUN.reset(token)
    elif args.func is cmd_analyze:
        from repro.obs import Tracer

        with Tracer().activate(root=None):
            yield
    else:
        yield


def _observe(observations) -> None:
    """Hand a finished result's observation verdicts to the manifest."""
    run = _RUN.get()
    if run is not None:
        run.observations = list(observations)


def _pipeline_from_args(args: argparse.Namespace) -> CoAnalysis:
    return CoAnalysis(
        filters=FilterChain(
            temporal=TemporalFilter(threshold=args.temporal_threshold),
            spatial=SpatialFilter(threshold=args.spatial_threshold),
            causal=CausalityFilter(window=args.causal_window),
        ),
        matcher=InterruptionMatcher(tolerance=args.tolerance),
        study_workers=getattr(args, "workers", 1),
    )


class _Refused(Exception):
    """A refused run: :func:`main` prints the message to stderr, exits 2."""


def _ingest_note(log, workers: int = 1) -> str:
    status = getattr(log, "cache_status", None)
    if status is not None:
        return f"cache {status}"
    if workers != 1:
        return f"{workers or 'auto'} workers"
    return ""


def _read_logs(
    args: argparse.Namespace, policy: IngestPolicy, cache=None,
    fatal_only: bool = False,
):
    """Read ``--ras`` and ``--job`` as the ``ingest.*`` spans.

    Returns ``(ras_log, job_log, spans)``; a damaged log that ingestion
    rejects or aborts on refuses the run. *fatal_only* reads the RAS
    log for a batch co-analysis, which needs only its FATAL rows and
    its extent; the ``ingest.ras`` span's rows still count every
    accepted record.
    """
    from repro.obs import maybe_span

    workers = getattr(args, "workers", 1)
    try:
        with maybe_span("ingest.ras") as ras_span:
            ras_log = read_ras_log(
                args.ras, policy=policy, workers=workers, cache=cache,
                fatal_only=fatal_only,
            )
            ras_span.rows = ras_log.num_records
            ras_span.note = _ingest_note(ras_log, workers)
        with maybe_span("ingest.job") as job_span:
            job_log = read_job_log(args.job, policy=policy, cache=cache)
            job_span.rows = job_log.num_jobs
            job_span.note = _ingest_note(job_log)
    except IngestAbortError as exc:
        raise _Refused(
            f"ingestion aborted: {exc}\n{exc.report.render()}"
        ) from None
    except IngestError as exc:
        raise _Refused(
            f"ingestion rejected a bad record: {exc}\n"
            "(rerun with --on-bad-record quarantine to divert bad "
            "records and continue)"
        ) from None
    return ras_log, job_log, (ras_span, job_span)


def _print_quarantine(ras_log, job_log) -> None:
    """Each log's quarantine report (non-strict ingest only)."""
    for label, log in (("RAS", ras_log), ("job", job_log)):
        report = getattr(log, "quarantine", None)
        if report is not None:
            print()
            print(report.render(label))


def _check_batch(label: str, result, batch) -> bool:
    """Print *result*'s full comparison with *batch*; True when equal."""
    from repro.core.equivalence import diff_results

    diffs = diff_results(result, batch)
    for diff in diffs:
        print(f"equivalence: {diff}")
    print(f"{label} == batch: {'OK' if not diffs else 'FAILED'}")
    return not diffs


def _run_analysis(
    args: argparse.Namespace, ras_log, job_log, ingest_spans=(),
    source: str = "",
) -> int:
    result = _pipeline_from_args(args).run(ras_log, job_log, source=source)
    _observe(result.observations)
    print(result.report())
    _print_quarantine(ras_log, job_log)
    if args.timings:
        from repro.viz.trace import render_timings

        print()
        print(render_timings(
            (*ingest_spans, *result.timings), title="stage timings (full)"
        ))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulate import CalibrationProfile, IntrepidSimulation

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = CalibrationProfile(seed=args.seed, scale=args.scale)
    t0 = time.time()
    trace = IntrepidSimulation(profile).run()
    ras_path = out_dir / "ras.log"
    job_path = out_dir / "job.log"
    write_ras_log(trace.ras_log, ras_path)
    write_job_log(trace.job_log, job_path)
    print(
        f"wrote {ras_path} ({len(trace.ras_log)} records) and "
        f"{job_path} ({trace.job_log.num_jobs} jobs) in "
        f"{time.time() - t0:.1f}s"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cache = None
    if args.cache_dir and not args.no_cache:
        from repro.parallel import ParseCache

        cache = ParseCache(args.cache_dir)
    ras_log, job_log, ingest_spans = _read_logs(
        args, _ingest_policy(args), cache=cache, fatal_only=True
    )
    if cache is not None:
        print(
            f"parse cache: ras={ras_log.cache_status}"
            f" job={job_log.cache_status}"
        )
    return _run_analysis(
        args, ras_log, job_log, ingest_spans=ingest_spans,
        source=f"{args.ras} + {args.job}",
    )


def cmd_corrupt(args: argparse.Namespace) -> int:
    from repro.faults.corruption import LogCorruptor

    corruptor = LogCorruptor(seed=args.seed, rate=args.rate, kind=args.kind)
    result = corruptor.corrupt_file(args.src, args.out)
    print(f"wrote {args.out} ({args.kind} log, seed {args.seed})")
    print(result.summary())
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.obs import maybe_span
    from repro.simulate import CalibrationProfile, IntrepidSimulation

    profile = CalibrationProfile(seed=args.seed, scale=args.scale)
    with maybe_span("simulate"):
        trace = IntrepidSimulation(profile).run()
    return _run_analysis(args, trace.ras_log, trace.job_log)


def _time_range_arg(text: str) -> tuple[float, float]:
    """Parse ``T0:T1`` (epoch seconds) into a half-open query range."""
    try:
        lo, hi = text.split(":", 1)
        t0, t1 = float(lo), float(hi)
    except ValueError:
        t0 = t1 = float("nan")
    if not t0 < t1:
        raise argparse.ArgumentTypeError(
            f"time range must be T0:T1 (epoch seconds) with T0 < T1, "
            f"got {text!r}"
        )
    return t0, t1


def cmd_fleet(args: argparse.Namespace) -> int:
    import tempfile

    from repro.simulate import CalibrationProfile
    from repro.simulate.fleet import store_fleet, synthesize_fleet
    from repro.store import ShardedDataset, analyze_fleet
    from repro.store.manifest import StoreError

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(args.out_dir) if args.out_dir else Path(scratch)
        fleet = None
        try:
            dataset = ShardedDataset.open(root)
            print(
                f"opened store at {root}: "
                f"{len(dataset.machines())} machines, "
                f"{len(dataset.manifest.shards)} shards"
            )
        except StoreError:
            profile = CalibrationProfile(seed=args.seed, scale=args.scale)
            t0 = time.time()
            fleet = synthesize_fleet(profile, n_machines=args.machines)
            dataset = store_fleet(root, fleet, windows=args.windows)
            print(
                f"synthesized {len(fleet)} machines into {root} "
                f"({len(dataset.manifest.shards)} shards, "
                f"{args.windows} windows) in {time.time() - t0:.1f}s"
            )
        result = analyze_fleet(
            dataset,
            time_range=args.time_range,
            seed=args.seed,
            pipeline_factory=lambda: _pipeline_from_args(args),
        )
        _observe(
            o for ma in result.ok_machines for o in ma.result.observations
        )
        print()
        print(result.report())
        if args.check_equivalence:
            if fleet is None:
                raise _Refused(
                    "cannot check equivalence against an existing "
                    "store (no batch logs in memory)"
                )
            if args.time_range is not None:
                raise _Refused(
                    "equivalence check requires a full-span run "
                    "(drop --time-range)"
                )
            print()
            if not _fleet_matches_batch(args, fleet, result):
                return 3
    return 1 if result.degraded else 0


def _fleet_matches_batch(args, fleet, result) -> bool:
    """Check every machine's sharded result against its batch run."""
    by_machine = {ma.machine: ma for ma in result.machines}
    ok = True
    for fm in fleet:
        ma = by_machine.get(fm.machine)
        if ma is None or not ma.ok:
            print(f"{fm.machine} == batch: FAILED (machine degraded)")
            ok = False
            continue
        batch = _pipeline_from_args(args).run(fm.ras_log, fm.job_log)
        ok = _check_batch(fm.machine, ma.result, batch) and ok
    print(f"sharded == batch: {'OK' if ok else 'FAILED'}")
    return ok


def cmd_stream(args: argparse.Namespace) -> int:
    import math

    from repro.stream import (
        StreamError,
        StreamingCoAnalysis,
        load_checkpoint,
        save_checkpoint,
        split_trace,
    )

    if args.validate_checkpoint:
        from repro.stream.checkpoint import validate_checkpoint

        problems = validate_checkpoint(args.validate_checkpoint)
        for problem in problems:
            print(f"checkpoint: {problem}")
        verdict = "CORRUPT" if problems else "OK"
        print(f"checkpoint {args.validate_checkpoint}: {verdict}")
        return 1 if problems else 0

    if bool(args.ras) != bool(args.job):
        raise _Refused(
            "stream needs both --ras and --job (or neither, to simulate)"
        )
    if args.resume and not args.checkpoint_dir:
        raise _Refused("--resume requires --checkpoint-dir")

    if args.ras:
        ras_log, job_log, _ = _read_logs(args, _ingest_policy(args))
        source = f"{args.ras} + {args.job}"
    else:
        from repro.simulate import CalibrationProfile, IntrepidSimulation

        profile = CalibrationProfile(seed=args.seed, scale=args.scale)
        trace = IntrepidSimulation(profile).run()
        ras_log, job_log = trace.ras_log, trace.job_log
        source = "stream demo"

    runner = None
    if args.resume:
        try:
            runner = load_checkpoint(
                args.checkpoint_dir, pipeline=_pipeline_from_args(args)
            )
            runner.source = source
            print(
                f"resumed {args.checkpoint_dir}: watermark="
                f"{runner.watermark:.0f}, "
                f"{runner.increments} increments already ingested"
            )
        except StreamError as exc:
            raise _Refused(f"cannot resume: {exc}") from None
    if runner is None:
        runner = StreamingCoAnalysis(
            pipeline=_pipeline_from_args(args), source=source
        )

    for inc in split_trace(ras_log, job_log, increments=args.increments):
        if inc.watermark <= runner.watermark:
            continue  # covered by the resumed checkpoint
        u = runner.ingest_increment(inc)
        fit = ""
        if u.fit is not None:
            delta = (
                "" if math.isnan(u.shape_delta)
                else f" (shape {u.shape_delta:+.4f})"
            )
            fit = f" weibull={u.fit.shape:.4f}/{u.fit.scale:.1f}{delta}"
        print(
            f"increment {u.index}: watermark={u.watermark:.0f}"
            f" raw={u.events_raw} spatial={u.after_spatial}"
            f" pending={u.pending_events} pairs={u.pairs_emitted}"
            f" rate={u.interruption_rate_per_day:.2f}/day{fit}"
        )
        if args.checkpoint_dir:
            save_checkpoint(runner, args.checkpoint_dir)
    result = runner.result()
    _observe(result.observations)
    print()
    print(result.report())
    _print_quarantine(ras_log, job_log)

    if args.check_equivalence:
        batch = _pipeline_from_args(args).run(ras_log, job_log, source=source)
        print()
        if not _check_batch("stream", result, batch):
            return 3
    return 0


def cmd_daemon(args: argparse.Namespace) -> int:
    import signal

    from repro.stream.daemon import DaemonConfig, DaemonLoop, Supervisor
    from repro.stream.source import RetryPolicy

    if args.alert_rule:
        from repro.obs.alerts import coerce_rules

        try:
            coerce_rules(args.alert_rule)
        except ValueError as exc:
            raise _Refused(f"bad --alert-rule: {exc}") from None
        if not args.ops_dir:
            raise _Refused("--alert-rule requires --ops-dir")
    if args.ops_dir and args.sample_interval <= 0:
        raise _Refused("--sample-interval must be positive")

    config = DaemonConfig(
        ras_path=args.ras,
        job_path=args.job,
        checkpoint_root=args.checkpoint_root,
        allowed_lateness=args.allowed_lateness,
        late_sink_dir=args.late_sink,
        poll_interval_s=args.poll_interval,
        checkpoint_every=args.checkpoint_every,
        idle_exit=args.idle_exit,
        store_root=args.store,
        machine=args.machine,
        policy=args.on_bad_record,
        retry=RetryPolicy(
            max_attempts=args.retry_attempts,
            deadline_s=args.retry_deadline,
        ),
        seed=args.seed,
        ops_dir=args.ops_dir,
        alert_rules=tuple(args.alert_rule or ()),
        sample_interval_s=args.sample_interval,
    )

    def make_fs():
        if args.inject_faults is None:
            return None
        from repro.faults.io import FaultPlan, FaultyFS

        return FaultyFS(FaultPlan.generate(args.inject_faults))

    active: dict[str, DaemonLoop] = {}

    def make_loop() -> DaemonLoop:
        loop = DaemonLoop(
            config, pipeline=_pipeline_from_args(args), fs=make_fs()
        )
        active["loop"] = loop
        for problem in loop.rotator.problems:
            print(f"checkpoint fallback: {problem}", file=sys.stderr)
        return loop

    previous = {}

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
        summary = Supervisor(make_loop, max_restarts=args.max_restarts).run()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    print(
        f"daemon done ({summary.stopped_by}): {summary.cycles} cycles,"
        f" {summary.increments} increments"
        f" ({summary.degraded_increments} degraded),"
        f" {summary.released_rows} rows released,"
        f" {summary.checkpoints} checkpoints,"
        f" {summary.store_windows} store windows,"
        f" late dropped {summary.late_dropped}"
    )
    if args.check_equivalence:
        result = active["loop"].result()
        _observe(result.observations)
        ras_log, job_log, _ = _read_logs(
            args, IngestPolicy(mode=args.on_bad_record), fatal_only=True
        )
        batch = _pipeline_from_args(args).run(ras_log, job_log)
        if not _check_batch("daemon", result, batch):
            return 3
    return 0


def cmd_feed(args: argparse.Namespace) -> int:
    """Grow destination files from sources in timed steps (CI helper)."""
    pairs = []
    for spec in args.copy:
        src, sep, dest = spec.partition(":")
        if not sep or not src or not dest:
            raise _Refused(f"bad --copy spec {spec!r} (want SRC:DEST)")
        pairs.append((Path(src), Path(dest)))
    payloads = []
    for src, dest in pairs:
        try:
            payloads.append(src.read_bytes())
        except OSError as exc:
            raise _Refused(f"cannot read {src}: {exc}") from None
        dest.write_bytes(b"")
    for step in range(1, args.steps + 1):
        time.sleep(args.interval)
        for (src, dest), data in zip(pairs, payloads):
            lo = len(data) * (step - 1) // args.steps
            hi = len(data) * step // args.steps
            with open(dest, "ab") as fh:
                fh.write(data[lo:hi])
                fh.flush()
                os.fsync(fh.fileno())
    return 0


def _ops_records(ops_dir: Path) -> list[dict]:
    """The ops log's records; an unreadable log refuses the run."""
    from repro.obs.opslog import read_ops_log

    try:
        return read_ops_log(ops_dir / "ops.jsonl")
    except (OSError, ValueError) as exc:
        raise _Refused(f"cannot read ops log: {exc}") from None


def cmd_health(args: argparse.Namespace) -> int:
    """Probe a daemon's health snapshot; the exit code IS the answer."""
    from repro.obs.health import probe_health

    ops_dir = Path(args.ops_dir)
    if args.history:
        previous = None
        transitions = 0
        for record in _ops_records(ops_dir):
            if record.get("type") != "heartbeat":
                continue
            status = record.get("status")
            if status != previous:
                transitions += 1
                reasons = record.get("reasons") or ()
                detail = f" ({'; '.join(reasons)})" if reasons else ""
                print(f"t={record.get('t')}: {previous} -> {status}{detail}")
                previous = status
        if previous is None:
            raise _Refused("no heartbeats in ops log")
        print(f"{transitions} transitions, last status: {previous}")
    verdict = probe_health(ops_dir / "health.json", max_age_s=args.max_age)
    print(verdict.describe())
    return verdict.exit_code


def cmd_dash(args: argparse.Namespace) -> int:
    """Render the live dashboard (or Prometheus text) from an ops dir."""
    from repro.obs.live import MetricSample, accumulate_samples
    from repro.viz.dash import dashboard_from_ops_dir, render_prometheus

    ops_dir = Path(args.ops_dir)
    if args.prom:
        samples = [
            MetricSample.from_record(r)
            for r in _ops_records(ops_dir)
            if r.get("type") == "sample"
        ]
        sys.stdout.write(render_prometheus(accumulate_samples(samples)))
        return 0
    while True:
        text, _health = dashboard_from_ops_dir(ops_dir)
        print(text)
        if args.once:
            return 0
        print()
        time.sleep(args.interval)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_manifest, validate_manifest
    from repro.viz import render_trace

    try:
        manifest = read_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        raise _Refused(f"cannot read manifest: {exc}") from None
    problems = validate_manifest(manifest)
    if args.validate:
        if problems:
            raise _Refused("\n".join(f"invalid: {p}" for p in problems))
        print(
            f"manifest OK: {len(manifest['spans'])} spans,"
            f" {len(manifest['metrics'])} metrics,"
            f" {len(manifest['observations'])} observations"
        )
        return 0
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    print(render_trace(manifest, top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-coanalysis",
        description="Co-analysis of RAS and job logs (IPDPS'11 reproduction)",
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="print the full per-stage timing table (incl. match.* "
             "kernel sub-stages) after the report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic trace pair")
    p_sim.add_argument("--out-dir", required=True)
    _add_profile_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cor = sub.add_parser(
        "corrupt", help="inject cataloged defects into a written log"
    )
    p_cor.add_argument("--src", required=True, help="clean input log")
    p_cor.add_argument("--out", required=True, help="corrupted output path")
    p_cor.add_argument(
        "--rate", type=_number(float, "rate", hi=1), default=0.05,
        help="fraction of rows to damage (default 0.05)",
    )
    p_cor.add_argument("--seed", type=int, default=2011)
    p_cor.add_argument(
        "--kind", choices=("ras", "job"), default="ras",
        help="which schema's defect taxonomy to inject (default ras)",
    )
    p_cor.set_defaults(func=cmd_corrupt)

    p_an = sub.add_parser("analyze", help="co-analyze a (RAS, job) log pair")
    p_an.add_argument("--ras", required=True)
    p_an.add_argument("--job", required=True)
    _add_analysis_args(p_an)
    _add_ingest_args(p_an)
    _add_workers_arg(p_an, _LOG_WORKERS)
    _add_cache_args(p_an)
    _add_telemetry_args(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_demo = sub.add_parser("demo", help="simulate + analyze in memory")
    _add_profile_args(p_demo)
    _add_analysis_args(p_demo)
    _add_workers_arg(p_demo, "study threads")
    _add_telemetry_args(p_demo)
    p_demo.set_defaults(func=cmd_demo)

    p_fl = sub.add_parser(
        "fleet",
        help="synthesize an N-machine fleet, shard it, map-reduce the "
             "co-analysis across machines",
    )
    p_fl.add_argument(
        "--machines", type=_number(int, "machines", lo=1), default=3,
        metavar="N",
        help="fleet size when synthesizing (default 3)",
    )
    p_fl.add_argument(
        "--windows", type=_number(int, "windows", lo=1), default=4,
        metavar="K",
        help="time windows per machine when sharding (default 4)",
    )
    p_fl.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="store root: reused when it already holds a store, "
             "populated otherwise (default: a temporary directory)",
    )
    p_fl.add_argument(
        "--time-range", type=_time_range_arg, default=None, metavar="T0:T1",
        help="restrict the scan to [T0, T1) epoch seconds; out-of-range "
             "shards are pruned unopened",
    )
    p_fl.add_argument(
        "--check-equivalence", action="store_true",
        help="also run each machine's logs through the batch pipeline "
             "and assert the sharded results are bit-identical "
             "(exit 3 on mismatch)",
    )
    _add_profile_args(p_fl)
    _add_analysis_args(p_fl)
    _add_telemetry_args(p_fl)
    p_fl.set_defaults(func=cmd_fleet)

    p_st = sub.add_parser(
        "stream",
        help="replay a trace through the incremental streaming runner "
             "(watermarked increments, rolling observations)",
    )
    p_st.add_argument(
        "--ras", default=None,
        help="RAS log to replay (with --job); omit both to simulate",
    )
    p_st.add_argument("--job", default=None, help="job log to replay")
    p_st.add_argument(
        "--increments", type=_number(int, "increments", lo=1), default=4,
        metavar="K",
        help="number of watermarked increments to cut the trace into "
             "(default 4); the result is bit-identical for any K",
    )
    p_st.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist resumable frontier state here after every "
             "increment (see DESIGN §12 for the format)",
    )
    p_st.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint-dir, skipping increments the "
             "checkpoint already covers",
    )
    p_st.add_argument(
        "--check-equivalence", action="store_true",
        help="also run the one-shot batch pipeline and assert the "
             "streamed result is bit-identical (exit 3 on divergence)",
    )
    p_st.add_argument(
        "--validate-checkpoint", default=None, metavar="DIR",
        help="audit a checkpoint directory (fingerprints, content "
             "hashes, corruption class) and exit: 0 healthy, 1 corrupt",
    )
    _add_profile_args(p_st)
    _add_analysis_args(p_st)
    _add_ingest_args(p_st)
    _add_workers_arg(p_st, _LOG_WORKERS)
    _add_telemetry_args(p_st)
    p_st.set_defaults(func=cmd_stream)

    p_dm = sub.add_parser(
        "daemon",
        help="tail growing RAS/job files as a fault-tolerant live "
             "co-analysis daemon (bounded lateness, retrying feeds, "
             "crash-safe checkpoints, optional fleet-store appends)",
    )
    p_dm.add_argument("--ras", required=True, help="RAS feed file to tail")
    p_dm.add_argument("--job", required=True, help="job feed file to tail")
    p_dm.add_argument(
        "--checkpoint-root", required=True, metavar="DIR",
        help="rotated checkpoint slots live here; resume is automatic",
    )
    p_dm.add_argument(
        "--allowed-lateness", type=_number(float, "allowed lateness"),
        default=300.0, metavar="S",
        help="bounded-lateness horizon in seconds (default 300)",
    )
    p_dm.add_argument(
        "--late-sink", default=None, metavar="DIR",
        help="divert records beyond the horizon here (default: count "
             "and drop)",
    )
    p_dm.add_argument(
        "--poll-interval", type=_number(float, "poll interval"),
        default=1.0, metavar="S",
        help="seconds between feed polls (default 1.0)",
    )
    p_dm.add_argument(
        "--checkpoint-every", type=_number(int, "checkpoint every", lo=1),
        default=1, metavar="N",
        help="checkpoint + store-flush every N data-bearing cycles "
             "(default 1)",
    )
    p_dm.add_argument(
        "--idle-exit", type=_number(int, "idle exit", lo=1), default=None,
        metavar="N",
        help="exit cleanly after N consecutive idle polls (default: "
             "run until SIGTERM/SIGINT)",
    )
    p_dm.add_argument(
        "--store", default=None, metavar="DIR",
        help="append released (stable) increments into this fleet "
             "store as machine --machine",
    )
    p_dm.add_argument(
        "--machine", default="live", metavar="NAME",
        help="store machine name for appended windows (default live)",
    )
    p_dm.add_argument(
        "--on-bad-record", choices=INGEST_MODES, default="quarantine",
        help="feed defect policy (default quarantine: a live daemon "
             "should divert damage, not die on it)",
    )
    p_dm.add_argument(
        "--max-restarts", type=_number(int, "max restarts"), default=3,
        metavar="N",
        help="supervisor restart budget after crashes (default 3)",
    )
    p_dm.add_argument(
        "--retry-attempts", type=_number(int, "retry attempts", lo=1),
        default=5, metavar="N",
        help="IO retry attempts per poll before degrading (default 5)",
    )
    p_dm.add_argument(
        "--retry-deadline", type=_number(float, "retry deadline"),
        default=10.0, metavar="S",
        help="overall IO retry deadline per poll in seconds (default 10)",
    )
    p_dm.add_argument(
        "--inject-faults", type=int, default=None, metavar="SEED",
        help="drive feed IO through a seeded fault plan (EIO, short "
             "reads, stalls, rotation) — robustness drills and CI",
    )
    p_dm.add_argument(
        "--check-equivalence", action="store_true",
        help="after exit, finalize and assert bit-identity against a "
             "batch run over the final files (exit 3 on divergence; "
             "assumes in-order feeds)",
    )
    p_dm.add_argument("--seed", type=int, default=0)
    p_dm.add_argument(
        "--ops-dir", default=None, metavar="DIR",
        help="live telemetry plane: write metric samples, heartbeats, "
             "alerts (ops.jsonl + RAS-schema mirror) and the health "
             "snapshot here — `repro health`/`repro dash` read it",
    )
    p_dm.add_argument(
        "--alert-rule", action="append", default=None, metavar="RULE",
        help="declarative alert rule, repeatable (grammar: "
             "'name: signal OP threshold [for S] [clear V] "
             "[severity LEVEL]', e.g. "
             "'drops: rate(stream.late_dropped) > 1 for 10 clear 0.1'); "
             "requires --ops-dir",
    )
    p_dm.add_argument(
        "--sample-interval", type=_number(float, "sample interval"),
        default=5.0, metavar="S",
        help="metric sampling window for the ops log (default 5.0)",
    )
    _add_analysis_args(p_dm)
    _add_telemetry_args(p_dm)
    p_dm.set_defaults(func=cmd_daemon)

    p_fd = sub.add_parser(
        "feed",
        help="grow destination files from sources in timed steps "
             "(synthesizes a live feed for daemon drills and CI)",
    )
    p_fd.add_argument(
        "--copy", action="append", required=True, metavar="SRC:DEST",
        help="copy SRC into DEST incrementally (repeatable)",
    )
    p_fd.add_argument(
        "--steps", type=_number(int, "steps", lo=1), default=10, metavar="N",
        help="number of append steps (default 10)",
    )
    p_fd.add_argument(
        "--interval", type=_number(float, "interval"), default=0.2,
        metavar="S",
        help="seconds between steps (default 0.2)",
    )
    p_fd.set_defaults(func=cmd_feed)

    p_he = sub.add_parser(
        "health",
        help="probe a daemon's health snapshot; exit 0 healthy / "
             "1 degraded / 2 unhealthy (liveness/readiness probe)",
    )
    p_he.add_argument(
        "--ops-dir", required=True, metavar="DIR",
        help="the daemon's --ops-dir",
    )
    p_he.add_argument(
        "--max-age", type=_number(float, "max age"), default=60.0,
        metavar="S",
        help="wall-clock staleness bound for a non-final snapshot "
             "(default 60); older means the daemon is presumed dead",
    )
    p_he.add_argument(
        "--history", action="store_true",
        help="also print the status transitions recorded in the "
             "ops log's heartbeat trail",
    )
    p_he.set_defaults(func=cmd_health)

    p_da = sub.add_parser(
        "dash",
        help="live ASCII ops dashboard (rates, gauges, alerts, "
             "heartbeats) from an ops dir; --prom emits Prometheus text",
    )
    p_da.add_argument(
        "--ops-dir", required=True, metavar="DIR",
        help="the daemon's --ops-dir",
    )
    p_da.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (CI and piping)",
    )
    p_da.add_argument(
        "--interval", type=_number(float, "interval"), default=2.0,
        metavar="S",
        help="refresh interval in live mode (default 2.0)",
    )
    p_da.add_argument(
        "--prom", action="store_true",
        help="emit the accumulated registry as Prometheus text "
             "exposition instead of the dashboard",
    )
    p_da.set_defaults(func=cmd_dash)

    p_tr = sub.add_parser(
        "trace", help="render or validate a telemetry run manifest"
    )
    p_tr.add_argument("manifest", help="run manifest (JSONL) to read")
    p_tr.add_argument(
        "--top", type=_number(int, "top", lo=1), default=5, metavar="N",
        help="hot-stage table depth (default 5)",
    )
    p_tr.add_argument(
        "--validate", action="store_true",
        help="schema-check the manifest instead of rendering it "
             "(exit 2 on problems)",
    )
    p_tr.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = _telemetry(args)
    try:
        with _tracing(args, run):
            rc = args.func(args)
        # a degraded fleet (exit 1) still finished its run
        if run is not None and (
            rc == 0 or (rc == 1 and args.func is cmd_fleet)
        ):
            print(f"telemetry manifest: {run.finish()}")
        return rc
    except _Refused as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into e.g. `head`; not an error worth a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
