"""The perf-trajectory exporter of the benchmarks.

:func:`record_bench` appends a ``(timestamp, git rev, metric, value)``
record to ``BENCH_<name>.json`` (in ``$REPRO_BENCH_DIR``, default the
working directory) so perf numbers accumulate across commits. The
session hook in :mod:`benchmarks.conftest` exports every
pytest-benchmark result through it, and the manual gate tests call it
themselves.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.durable import atomic_write
from repro.obs.manifest import _scalar, git_rev

__all__ = ["record_bench"]


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
