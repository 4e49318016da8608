"""The benchmark process: inputs, workloads, checks and metrics.

Every measurement is of a child process: ``repro`` CLI invocations for
the timed runs and :mod:`benchmarks.e2e.child` for the in-process
reference and the traced passes. One benchmark process, one child at a
time; ``--workers 2`` in ``warm_w2`` is the only pool.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .child import strip_report
from .layers import (
    METRICS,
    coverage_problems,
    layer_self_times,
    span_metrics,
    unattributed_s,
)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: the trace volume of every workload: the paper's trace at one
#: twentieth of its volume (104k RAS records, 3.5k jobs). See README.md
#: for why it is not the paper's full volume.
FULL_SCALE = 0.05
#: the trace volume of ``--smoke``
SMOKE_SCALE = 0.01
#: at FULL_SCALE a seed's FATAL record count ranges from 0.2k to 2.6k,
#: and cold_w1's run time with it (3.6 s at 0.2k, 4.1 s at 2.6k), so the
#: trace for seed N is that of the first of the candidate seeds
#: N + k * CANDIDATE_STRIDE, k = 0, 1, ..., whose count lies in the
#: middle half of the counts of seeds 0-39 (about half of all seeds do;
#: the last candidate when none does)
FATAL_BAND = (500, 1500)
CANDIDATES = 16
CANDIDATE_STRIDE = 1_000_003
#: a set-up is repeated at least SETUP_REPS times and until the
#: repetitions add up to SETUP_MIN_S, so short set-ups get a steady median
SETUP_REPS = 3
SETUP_MIN_S = 2.0
#: a hung child is killed (with its process group) after this long
CHILD_TIMEOUT_S = 150.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

#: packages the trace generator imports; a change to any of them
#: regenerates the cached trace
GENERATOR_SOURCES = (
    "repro/simulate", "repro/workload", "repro/faults", "repro/machine",
    "repro/sched", "repro/stats", "repro/frame", "repro/logs",
)


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


@dataclass(frozen=True)
class Settings:
    seed: int
    seconds: float
    trace_dir: Path
    #: volume of the trace (``--smoke`` lowers it to SMOKE_SCALE)
    scale: float = FULL_SCALE
    setup_reps: int = SETUP_REPS
    setup_min_s: float = SETUP_MIN_S
    #: one timed repetition instead of filling ``seconds`` (``--smoke``)
    single_rep: bool = False
    #: damage the RAS log with ``repro corrupt`` at this rate
    corrupt_rate: float | None = None


@dataclass(frozen=True)
class Proc:
    rc: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Inputs:
    dir: Path
    ras: Path
    job: Path
    #: seconds generating the trace took, None when it was reused
    gen_s: float | None
    #: the stripped in-process report, None when strict parsing failed
    reference: str | None
    reference_error: str | None
    #: seconds of each in-process analysis that made the reference
    reference_s: tuple[float, ...]


@dataclass
class Outcome:
    workload: str
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def op(self, problems: list[str]) -> None:
        """Count one operation, failed when it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# ----------------------------------------------------------------------
# processes


def _env(bench_code: bool) -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("REPRO_CACHE_DIR", "REPRO_TELEMETRY_DIR", "PYTHONPATH")
        and not k.startswith("REPRO_BENCH_")
    }
    paths = [str(SRC)] + ([str(ROOT)] if bench_code else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(argv: list, cwd: Path, work: Path, bench_code: bool = False) -> Proc:
    """Run one child in *cwd* to completion; wall and peak RSS (its own
    and its reaped pool workers') come from wait4.

    The child leads its own process group, so a timeout or an
    interrupt kills it together with any pool workers it forked. Its
    output is buffered in files under *work*.
    """
    argv = [str(a) for a in argv]
    with open(work / "child.out", "w+b") as out, open(
        work / "child.err", "w+b"
    ) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, cwd=cwd, env=_env(bench_code),
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL:
            raise BenchError(f"child timed out: {' '.join(argv)}")
        out.seek(0)
        err.seek(0)
        return Proc(
            rc=proc.returncode,
            wall_s=wall,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def repro_argv(*args) -> list:
    return [sys.executable, "-m", "repro", *args]


def run_child(mode: str, spec: dict, work: Path, cwd: Path) -> dict:
    """Run a :mod:`benchmarks.e2e.child` mode; its JSON result."""
    spec_path, out_path = work / f"{mode}.spec.json", work / f"{mode}.out.json"
    spec_path.write_text(json.dumps(spec, default=str), encoding="utf-8")
    out_path.unlink(missing_ok=True)
    proc = spawn(
        [sys.executable, "-m", "benchmarks.e2e.child", mode, spec_path,
         out_path],
        cwd=cwd, work=work, bench_code=True,
    )
    if proc.rc != 0 or not out_path.exists():
        raise BenchError(
            f"child {mode} exited {proc.rc}:\n{proc.stderr.strip()}"
        )
    return json.loads(out_path.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# inputs


def source_digest(parts) -> str:
    """blake2b over the ``.py`` sources under ``src/<part>`` for each part."""
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        base = SRC / part
        files = [base] if base.is_file() else sorted(base.rglob("*.py"))
        for path in files:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def more_setups(times: list[float], s: Settings) -> bool:
    """Whether a set-up with these repetition *times* must run again."""
    return len(times) < s.setup_reps or sum(times) < s.setup_min_s


def prepare(s: Settings, work: Path, setup: bool = False) -> Inputs:
    """The seed's trace and its reference report.

    ``repro simulate`` makes the trace once (see :data:`FATAL_BAND`); it
    is kept under ``trace_dir``, keyed by seed, scale and a hash of the
    code that generates it, and every later run of any workload on that
    seed reuses it. The reference is made afresh by an in-process
    analysis; with *setup* it is repeated as a set-up (see
    :func:`more_setups`), and its times are the cold set-up.
    """
    traces = s.trace_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    scale = s.scale
    banded = scale == FULL_SCALE
    key = f"scale{scale:g}-seed{s.seed}-{source_digest(GENERATOR_SOURCES)}"
    if banded:
        key += f"-fatal{FATAL_BAND[0]}-{FATAL_BAND[1]}"
    trace = traces / key
    gen_s = None
    if not trace.is_dir():
        t0 = time.perf_counter()
        tmp = traces / f".{key}.{os.getpid()}"
        candidates = (
            [s.seed + k * CANDIDATE_STRIDE for k in range(CANDIDATES)]
            if banded else [s.seed]
        )
        for seed in candidates:
            shutil.rmtree(tmp, ignore_errors=True)
            proc = spawn(
                repro_argv("simulate", "--out-dir", tmp, "--scale", scale,
                           "--seed", seed),
                cwd=work, work=work,
            )
            if proc.rc != 0:
                raise BenchError(f"repro simulate exited {proc.rc}:\n"
                                 f"{proc.stderr.strip()}")
            if not banded:
                break
            fatal = (tmp / "ras.log").read_bytes().count(b"|FATAL|")
            if FATAL_BAND[0] <= fatal <= FATAL_BAND[1]:
                break
        tmp.rename(trace)
        gen_s = time.perf_counter() - t0
    ras, job = trace / "ras.log", trace / "job.log"
    if s.corrupt_rate is not None:
        bad = trace / f"ras_bad-{s.corrupt_rate:g}.log"
        if not bad.exists():
            tmp = trace / f".{bad.name}.{os.getpid()}"
            proc = spawn(
                repro_argv("corrupt", "--src", ras, "--out", tmp,
                           "--rate", s.corrupt_rate, "--seed", s.seed),
                cwd=work, work=work,
            )
            if proc.rc != 0:
                raise BenchError(f"repro corrupt exited {proc.rc}:\n"
                                 f"{proc.stderr.strip()}")
            tmp.rename(bad)
        ras = bad
    ref = run_child(
        "reference",
        {"ras": ras, "job": job,
         "reps": s.setup_reps if setup else 1,
         "min_s": s.setup_min_s if setup else 0.0,
         "source": f"{ras.name} + {job.name}"},
        work, cwd=work,
    )
    return Inputs(
        dir=trace, ras=ras, job=job, gen_s=gen_s,
        reference=ref["report"], reference_error=ref["error"],
        reference_s=tuple(ref["times"]),
    )


# ----------------------------------------------------------------------
# checks


def cli_problems(
    rc: int, stdout: str, stderr: str, inputs: Inputs, expect: str | None
) -> list[str]:
    """Why one ``repro analyze`` run failed (empty when it did not)."""
    if rc != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit {rc}: {last[0]}"]
    problems = []
    if "DEGRADED" in stdout:
        problems.append("report has a DEGRADED section")
    if expect is not None and f"parse cache: {expect}" not in stdout:
        problems.append(f"no 'parse cache: {expect}' line")
    if inputs.reference is None:
        problems.append(f"no reference report: {inputs.reference_error}")
    elif strip_report(stdout) != inputs.reference:
        problems.append("report differs from the in-process reference")
    return problems


def analyze_argv(inputs: Inputs, workers: int, cache: Path | None = None):
    # relative log names keep the report header identical across runs
    argv = ["analyze", "--ras", inputs.ras.name, "--job", inputs.job.name,
            "--workers", str(workers)]
    return argv + (["--cache-dir", str(cache)] if cache else [])


def _analyze(
    out: Outcome, inputs: Inputs, work: Path, argv, expect=None
) -> Proc:
    proc = spawn(repro_argv(*argv), cwd=inputs.dir, work=work)
    out.op(cli_problems(proc.rc, proc.stdout, proc.stderr, inputs, expect))
    return proc


def _repeat(s: Settings, op) -> list:
    """Call *op* until the measuring window is spent (at least once)."""
    samples = []
    deadline = time.perf_counter() + s.seconds
    while True:
        samples.append(op())
        if s.single_rep or time.perf_counter() >= deadline:
            return samples


def _median(values) -> float:
    return float(statistics.median(values))


def _cli_metrics(setup_s: list[float], procs: list[Proc]) -> dict:
    return {
        "setup_s": _median(setup_s),
        "wall_s": _median(p.wall_s for p in procs),
        "peak_rss_mb": _median(p.peak_rss_mb for p in procs),
    }


# ----------------------------------------------------------------------
# workloads, untraced


def run_cold(s: Settings, work: Path) -> Outcome:
    """cold_w1: ``analyze --workers 1`` on text, no cache.

    Set-up is the in-process analysis of the same logs that makes the
    reference report every run is checked against.
    """
    out = Outcome("cold_w1")
    inputs = prepare(s, work, setup=True)
    _note_inputs(out, inputs)
    argv = analyze_argv(inputs, workers=1)
    procs = _repeat(s, lambda: _analyze(out, inputs, work, argv))
    out.metrics = _cli_metrics(inputs.reference_s, procs)
    out.notes.append(
        f"{len(procs)} timed runs, {len(inputs.reference_s)} set-ups"
    )
    return out


def run_warm(s: Settings, work: Path) -> Outcome:
    """warm_w2: set-up fills an empty parse cache; reruns hit it."""
    out = Outcome("warm_w2")
    inputs = prepare(s, work)
    _note_inputs(out, inputs)
    setup, cache = [], None
    while more_setups(setup, s):
        if cache is not None:
            shutil.rmtree(cache)
        cache = work / f"cache{len(setup)}"
        setup.append(
            _analyze(out, inputs, work, analyze_argv(inputs, 2, cache),
                     expect="ras=miss job=miss").wall_s
        )
    argv = analyze_argv(inputs, 2, cache)
    procs = _repeat(
        s, lambda: _analyze(out, inputs, work, argv, expect="ras=hit job=hit")
    )
    out.metrics = _cli_metrics(setup, procs)
    out.notes.append(f"{len(procs)} timed reruns, {len(setup)} set-ups")
    return out


def _note_inputs(out: Outcome, inputs: Inputs) -> None:
    gen = (
        f"generated in {inputs.gen_s:.1f} s (gen_s, information only)"
        if inputs.gen_s is not None
        else "reused"
    )
    out.notes.append(f"trace {inputs.dir.name}: {gen}")


# ----------------------------------------------------------------------
# workloads, traced


def _pass_spec(s: Settings, workload: str, inputs: Inputs, work: Path,
               tag: str) -> dict:
    spec = {"workload": workload, "manifest": work / f"{tag}.jsonl"}
    if workload == "warm_w2":
        cache = work / f"{tag}-cache"
        argvs = [analyze_argv(inputs, 2, cache)] * 2
    else:
        argvs = [analyze_argv(inputs, 1)]
    return dict(spec, argvs=argvs)


def _check_pass(out: Outcome, workload: str, inputs: Inputs, res: dict):
    expects = (
        ["ras=miss job=miss", "ras=hit job=hit"]
        if workload == "warm_w2" else [None]
    )
    for run, expect in zip(res["runs"], expects):
        out.op(cli_problems(run["rc"], run["stdout"], "", inputs, expect))


def run_traced(s: Settings, workload: str, work: Path) -> Outcome:
    """Pairs of (untraced twin, traced) passes for the measuring window.

    Per-layer metrics are medians over the traced passes; the overhead
    ratio compares the median traced and twin walls. Raises
    :class:`BenchError` when the coverage guard trips or the span tree
    does not pass ``repro trace --validate``.
    """
    out = Outcome(workload)
    inputs = prepare(s, work)
    _note_inputs(out, inputs)
    twins, traced = [], []
    deadline = time.perf_counter() + s.seconds
    for pair in itertools.count():
        # alternate which pass of the pair runs first
        for wrap in (pair % 2 == 1, pair % 2 == 0):
            tag = f"pass{pair}-{'traced' if wrap else 'twin'}"
            spec = dict(_pass_spec(s, workload, inputs, work, tag), wrap=wrap)
            res = run_child("pass", spec, work, cwd=inputs.dir)
            _check_pass(out, workload, inputs, res)
            shutil.rmtree(work / f"{tag}-cache", ignore_errors=True)
            if not wrap:
                twins.append(res["region_s"])
                continue
            spans = res["spans"]
            problems = coverage_problems(workload, spans, res["region_s"])
            if problems:
                raise BenchError(
                    "coverage guard:\n  " + "\n  ".join(problems)
                )
            traced.append((res["region_s"], spans, spec["manifest"]))
        if s.single_rep or time.perf_counter() >= deadline:
            break

    region_s, spans, manifest = traced[-1]
    kept = s.trace_dir / "manifests" / f"{workload}-seed{s.seed}.jsonl"
    kept.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(manifest, kept)
    check = spawn(repro_argv("trace", kept, "--validate"), cwd=work,
                  work=work)
    if check.rc != 0:
        raise BenchError(f"repro trace --validate {kept}:\n{check.stderr}")

    per_pass = [span_metrics(sp, r) for r, sp, _ in traced]
    overhead = _median(r for r, _, _ in traced) / _median(twins)
    out.metrics = {
        m.name: overhead if m.stat == "twin"
        else _median(p[m.name] for p in per_pass)
        for m in METRICS
    }
    layers = layer_self_times(spans)
    shares = ", ".join(
        f"{name} {100 * t / region_s:.1f}%"
        for name, t in sorted(layers.items(), key=lambda kv: -kv[1])
    )
    loose = unattributed_s(spans, region_s)
    out.notes += [
        f"{len(traced)} traced passes, {len(twins)} untraced twins;"
        f" manifest {kept}",
        f"layer self time of {region_s:.3f} s traced: {shares};"
        f" unattributed {100 * loose / region_s:.1f}%",
    ]
    return out


RUNNERS = {
    "cold_w1": run_cold,
    "warm_w2": run_warm,
}


def run_workload(s: Settings, workload: str, trace: bool) -> Outcome:
    """One workload, untraced (end-to-end metrics) or traced (per-layer)."""
    work = s.trace_dir / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            return run_traced(s, workload, work)
        return RUNNERS[workload](s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# output


def units(trace: bool) -> dict[str, str]:
    if trace:
        return {m.name: m.unit for m in METRICS}
    return dict(END_TO_END)


def result_line(outcomes: list[Outcome], trace: bool) -> dict:
    """The final JSON object; metric names carry a ``<workload>.``
    prefix when more than one workload ran."""
    unit = units(trace)
    prefix = len(outcomes) > 1
    metrics = {
        (f"{o.workload}.{name}" if prefix else name): {
            "value": o.metrics[name], "unit": unit[name],
        }
        for o in outcomes
        for name in unit
    }
    failed = sum(o.failed for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": metrics,
    }


def render(o: Outcome, s: Settings, trace: bool) -> str:
    unit = units(trace)
    lines = [f"== {o.workload} (seed {s.seed}, scale {s.scale:g}) =="]
    lines += [f"  {note}" for note in o.notes]
    width = max(len(name) for name in unit)
    for name, u in unit.items():
        lines.append(f"  {name:<{width}}  {o.metrics[name]:>14.6g} {u}")
    frac = o.failed / o.attempted if o.attempted else 0.0
    lines.append(
        f"  {'failed_frac':<{width}}  {frac:>14.6g}"
        f" ({o.failed} failed / {o.attempted} attempted)"
    )
    lines += [f"  FAILED: {p}" for p in o.problems[:20]]
    return "\n".join(lines)


def record(o: Outcome, s: Settings, trace: bool) -> dict:
    """One ``--out`` line: what ``compare`` reads back."""
    return {
        "workload": o.workload,
        "seed": s.seed,
        "scale": s.scale,
        "trace": trace,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": dict(o.metrics),
    }
