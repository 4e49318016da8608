"""The benchmark's own child processes.

Run as ``python -m benchmarks.e2e.child MODE SPEC_JSON OUT_JSON`` with
the checkout's ``src`` and root on ``PYTHONPATH``; the parent
(:mod:`benchmarks.e2e.run`) writes SPEC and reads OUT. Modes:

* ``reference`` — the in-process report every CLI report must equal,
  timed (the cold_w1 set-up);
* ``pass`` — one pass of a workload, untraced (the twin) or traced
  through :class:`benchmarks.e2e.layers.Recorder`.

Nothing from :mod:`repro` is imported at module level, so a pass can
time ``import repro.cli`` as the first touch of the package.
"""

from __future__ import annotations

import io
import json
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext, redirect_stdout
from pathlib import Path

from .layers import Recorder


def strip_report(text: str) -> str:
    """A CLI stdout or rendered report, minus what may differ by run.

    Drops the ``parse cache:`` status line and the ``Stage timings``
    section; everything else must be identical across runs and modes.
    """
    sections = text.strip("\n").split("\n\n")
    kept = [s for s in sections if not s.startswith("-- Stage timings")]
    if kept and kept[0].startswith("parse cache:"):
        kept[0] = kept[0].split("\n", 1)[1] if "\n" in kept[0] else ""
    return "\n\n".join(kept)


# ----------------------------------------------------------------------


def mode_reference(spec: dict) -> dict:
    """The in-process report for the trace, made at least ``reps`` times
    and until the repetitions add up to ``min_s`` seconds.

    Each repetition parses both text logs and runs and renders the
    analysis in this process; ``times`` are their seconds, imports
    excluded. ``report`` is the first repetition's stripped report, or
    None with ``error`` set when the strict parse fails.
    """
    import repro.cli  # noqa: F401 - byte-compiles the CLI before timed runs
    from repro.core import CoAnalysis
    from repro.logs import (
        IngestAbortError,
        IngestError,
        read_job_log,
        read_ras_log,
    )

    times, report, error = [], None, None
    while len(times) < spec["reps"] or sum(times) < spec["min_s"]:
        t0 = time.perf_counter()
        try:
            ras = read_ras_log(spec["ras"])
            job = read_job_log(spec["job"])
        except (IngestError, IngestAbortError) as exc:
            times.append(time.perf_counter() - t0)
            error = f"{type(exc).__name__}: {exc}"
            continue
        text = CoAnalysis(study_workers=1).run(
            ras, job, source=spec["source"]
        ).report()
        times.append(time.perf_counter() - t0)
        if report is None:
            report = strip_report(text)
    return {"report": None if error else report, "error": error,
            "times": times}


# ----------------------------------------------------------------------


def _call_main(argv: list[str]) -> dict:
    import repro.cli

    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = repro.cli.main(argv)
    except SystemExit as exc:  # argparse errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - reported as a failed operation
        traceback.print_exc()
        rc = 1
    return {"rc": int(rc or 0), "stdout": buf.getvalue()}


def mode_pass(spec: dict) -> dict:
    """One pass of a workload, traced when ``spec["wrap"]``.

    The measured region runs from just before ``import repro.cli`` to
    the return of the pass's last ``repro.cli.main`` call.
    """
    t_start = time.perf_counter()
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - t_start
    recorder = Recorder() if spec["wrap"] else None
    with ExitStack() as stack:
        if recorder is not None:
            from repro.obs import get_metrics

            baseline = get_metrics().mark()
            stack.enter_context(recorder.tracer.span("run"))
            recorder.tracer.attach("cli.import", wall_s=import_s)
            with recorder.tracer.span("trace.install"):
                recorder.install()
        runs = []
        for argv in spec["argvs"]:
            span = nullcontext()
            if recorder is not None:
                span = recorder.tracer.span("cli.main")
            with span:
                runs.append(_call_main(argv))
    out = {"import_s": import_s, "runs": runs,
           "region_s": time.perf_counter() - t_start}
    if recorder is not None:
        from repro.obs import get_metrics, write_manifest

        write_manifest(
            spec["manifest"],
            tracer=recorder.tracer,
            metrics=get_metrics(),
            metrics_since=baseline,
            config={"workload": spec["workload"], "region_s": out["region_s"]},
        )
        # the manifest rounds times to microseconds; metrics keep every digit
        out["spans"] = [
            {"id": sp.span_id, "parent": sp.parent_id, "name": sp.name,
             "start_s": sp.start_s, "wall_s": sp.wall_s, "rows": sp.rows,
             "attrs": sp.attrs}
            for sp in recorder.tracer.spans
        ]
    return out


MODES = {
    "reference": mode_reference,
    "pass": mode_pass,
}


def main(argv: list[str]) -> int:
    mode, spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = MODES[mode](spec)
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
