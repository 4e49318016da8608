"""Machine-readable run telemetry: the JSONL manifest and bench records.

A **run manifest** is one JSON Lines file describing one pipeline run:

* line 1 — the ``run`` record: schema version, creation time, git
  revision, the run configuration and its fingerprint;
* ``span`` records — the tracer's span tree (see
  :mod:`repro.obs.trace`), parent-linked by id;
* ``metric`` records — the metrics-registry snapshot
  (:mod:`repro.obs.metrics`);
* ``observation`` records — the paper-observation verdicts, when the
  run computed them.

:func:`validate_manifest` checks the schema without any external
dependency; ``python -m repro trace manifest.jsonl`` renders the tree
(:mod:`repro.viz.trace`).

:func:`record_bench` is the perf-trajectory exporter: each benchmark
appends a ``(timestamp, git rev, metric, value)`` record to
``BENCH_<name>.json`` (in ``$REPRO_BENCH_DIR``, default the working
directory) so perf numbers accumulate across commits.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

from repro.durable import atomic_write, content_hash

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "git_rev",
    "config_fingerprint",
    "write_manifest",
    "read_manifest",
    "validate_manifest",
    "record_bench",
]

#: bump on any change to the record layouts below
MANIFEST_SCHEMA_VERSION = 1

_SPAN_REQUIRED = ("id", "parent", "name", "wall_s", "cpu_s", "rows")
_METRIC_KINDS = ("counter", "gauge", "monotonic_gauge", "histogram")


def git_rev(cwd: "str | Path | None" = None) -> str:
    """The repository HEAD revision, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except Exception:  # noqa: BLE001 - git absent, timeout, ...
        return "unknown"


def config_fingerprint(config: dict) -> str:
    """Order-independent digest of a run configuration."""
    canonical = json.dumps(
        config, sort_keys=True, separators=(",", ":"), default=str
    )
    return content_hash(canonical.encode("utf-8"), digest_size=12)


def _observation_record(obs) -> dict:
    return {
        "type": "observation",
        "number": int(obs.number),
        "title": str(obs.title),
        "holds": bool(obs.holds),
        "available": bool(getattr(obs, "available", True)),
        "measured": {k: _scalar(v) for k, v in obs.measured.items()},
    }


def _scalar(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    try:
        return float(value)  # numpy scalars
    except (TypeError, ValueError):
        return str(value)


def write_manifest(
    path: "str | Path",
    *,
    tracer=None,
    metrics=None,
    metrics_since: dict | None = None,
    config: dict | None = None,
    observations=(),
    extra: dict | None = None,
) -> Path:
    """Write one run manifest; returns the path written.

    *tracer* supplies the span tree, *metrics* the registry snapshot;
    either may be ``None``. *metrics_since* (a
    :meth:`~repro.obs.metrics.MetricsRegistry.mark` baseline taken at
    run start) makes the metric records **per-run deltas** — without it
    a second run in the same process would report cumulative counter
    totals. *config* (JSON-safe dict) is embedded in the ``run`` record
    along with its fingerprint and the git revision.
    """
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    config = config or {}
    run_record = {
        "type": "run",
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_unix": time.time(),
        "git_rev": git_rev(),
        "config_fingerprint": config_fingerprint(config),
        "config": config,
    }
    if extra:
        run_record.update(extra)
    lines = [run_record]
    if tracer is not None:
        lines.extend(span.as_record() for span in tracer.spans)
    if metrics is not None:
        lines.extend(metrics.snapshot(since=metrics_since))
    lines.extend(_observation_record(o) for o in observations)
    payload = "".join(json.dumps(r, default=str) + "\n" for r in lines)
    atomic_write(path, lambda fh: fh.write(payload.encode("utf-8")))
    return path


def read_manifest(path: "str | Path") -> dict:
    """Load a manifest into ``{"run", "spans", "metrics", "observations"}``.

    Raises ``ValueError`` on unparseable lines; schema problems are the
    validator's job, not the reader's.
    """
    out: dict = {"run": None, "spans": [], "metrics": [], "observations": []}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: line {line_no} is not JSON: {exc}"
                ) from exc
            kind = record.get("type")
            if kind == "run" and out["run"] is None:
                out["run"] = record
            elif kind == "span":
                out["spans"].append(record)
            elif kind == "metric":
                out["metrics"].append(record)
            elif kind == "observation":
                out["observations"].append(record)
            else:
                out.setdefault("unknown", []).append(record)
    return out


def validate_manifest(source) -> list[str]:
    """Schema problems in a manifest (empty list = valid).

    *source* is a path or an already-loaded :func:`read_manifest` dict.
    Checked: exactly one ``run`` record of the supported schema
    version; span ids unique, parents resolvable, exactly one root,
    non-negative times; metric records of known kind with the fields
    their kind requires.
    """
    if not isinstance(source, dict):
        try:
            source = read_manifest(source)
        except (OSError, ValueError) as exc:
            return [str(exc)]
    problems: list[str] = []

    run = source.get("run")
    if run is None:
        problems.append("missing run record")
    else:
        version = run.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            problems.append(
                f"unsupported schema_version {version!r}"
                f" (expected {MANIFEST_SCHEMA_VERSION})"
            )
        for key in ("git_rev", "config_fingerprint", "config"):
            if key not in run:
                problems.append(f"run record missing {key!r}")

    spans = source.get("spans", [])
    ids = set()
    roots = 0
    for span in spans:
        missing = [k for k in _SPAN_REQUIRED if k not in span]
        if missing:
            problems.append(f"span missing fields {missing}: {span}")
            continue
        if span["id"] in ids:
            problems.append(f"duplicate span id {span['id']}")
        ids.add(span["id"])
        if span["parent"] is None:
            roots += 1
        for key in ("wall_s", "cpu_s"):
            value = span[key]
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(
                    f"span {span['id']} has bad {key}: {value!r}"
                )
        status = span.get("status", "ok")
        if status not in ("ok", "error"):
            problems.append(
                f"span {span['id']} has bad status {status!r}"
            )
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent not in ids:
            problems.append(
                f"span {span.get('id')} has unknown parent {parent}"
            )
    if spans and roots != 1:
        problems.append(f"expected exactly one root span, found {roots}")

    for metric in source.get("metrics", []):
        kind = metric.get("kind")
        if kind not in _METRIC_KINDS:
            problems.append(f"unknown metric kind {kind!r}")
            continue
        if "name" not in metric or "labels" not in metric:
            problems.append(f"metric missing name/labels: {metric}")
        needed = ("count", "sum") if kind == "histogram" else ("value",)
        for key in needed:
            if key not in metric:
                problems.append(
                    f"{kind} metric {metric.get('name')!r} missing {key!r}"
                )

    for obs in source.get("observations", []):
        for key in ("number", "holds"):
            if key not in obs:
                problems.append(f"observation missing {key!r}: {obs}")
    return problems


# ----------------------------------------------------------------------
# perf-trajectory records


def record_bench(
    name: str,
    metric: str,
    value: float,
    directory: "str | Path | None" = None,
    **extra,
) -> Path:
    """Append one perf-trajectory record to ``BENCH_<name>.json``.

    The file holds a JSON array of records, each carrying the
    timestamp, git revision, metric name and value (plus any *extra*
    context such as scale or worker count). *directory* defaults to
    ``$REPRO_BENCH_DIR`` or the working directory.

    Raises ``ValueError`` naming the file, and leaves it as it is, when
    an existing trajectory is torn or is not a JSON list — appending to
    an empty list would overwrite the committed records.
    """
    directory = Path(
        directory or os.environ.get("REPRO_BENCH_DIR") or "."
    )
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            records = json.load(fh)
    except FileNotFoundError:
        records = []
    except ValueError as exc:  # torn JSON or undecodable bytes
        raise ValueError(f"unreadable bench trajectory {path}: {exc}")
    if not isinstance(records, list):
        raise ValueError(
            f"bench trajectory {path} holds a {type(records).__name__},"
            " not a JSON list"
        )
    records.append(
        {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "git_rev": git_rev(),
            "metric": metric,
            "value": float(value),
            **{k: _scalar(v) for k, v in extra.items()},
        }
    )
    payload = (json.dumps(records, indent=1) + "\n").encode("utf-8")
    atomic_write(path, lambda fh: fh.write(payload))
    return path
