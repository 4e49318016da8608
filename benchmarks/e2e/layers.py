"""Outside-in per-layer tracing: wrappers, span accounting, layer metrics.

The benchmark measures the program without editing it. :class:`Recorder`
replaces the public entry points of each layer (module functions and
class methods, looked up by name at install time) with wrappers that
open a span on a :class:`repro.obs.Tracer`. That tracer is never
activated, so the program's own ``maybe_span`` instrumentation stays
off and the spans are exactly the calls the benchmark sees from
outside.

A span's *self time* is its wall time minus the part of its interval
that its child spans cover (children running on the study thread pool
may overlap each other, so the covered part is a union, not a sum).
:func:`span_metrics` turns one pass's span records into the per-layer
metrics listed in :data:`METRICS`; ``trace.overhead_ratio`` needs the
untraced twin pass and is added by :func:`benchmarks.e2e.run.run_traced`.

Nothing here imports :mod:`repro` at module level: the traced child
times ``import repro.cli`` before anything else touches the package.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import wraps
from pathlib import Path

WORKLOADS = ("cold_w1", "warm_w2")
_ALL = frozenset(WORKLOADS)
_WARM = frozenset({"warm_w2"})

STUDIES = (
    "interarrivals",
    "rates",
    "midplane_profile",
    "skew",
    "bursts",
    "propagation",
    "vulnerability",
)


@dataclass(frozen=True)
class Metric:
    """One per-layer metric and where it comes from.

    *stat* says how the value is read off the spans named *spans*:
    ``self`` / ``wall`` sum self or inclusive seconds, ``rows`` and
    ``bytes`` sum the counts the wrappers recorded; the other stats are
    computed by name in :func:`span_metrics` or by ``run_traced``.
    *workloads* are the workloads whose traced pass must call *spans*
    at least once (the coverage guard).
    """

    name: str
    unit: str
    better: str
    stat: str
    spans: tuple[str, ...]
    workloads: frozenset[str]


def _t(name: str, span: str, workloads, stat: str = "self") -> Metric:
    return Metric(name, "s", "lower", stat, (span,), frozenset(workloads))


METRICS: tuple[Metric, ...] = (
    _t("cli.import_s", "cli.import", _ALL),
    _t("core.report_s", "core.report", _ALL),
    _t("logs.read_ras_s", "logs.read_ras", _ALL),
    Metric("logs.read_ras_rows_per_s", "rows/s", "higher", "rows_per_s",
           ("logs.read_ras",), _ALL),
    Metric("logs.read_ras_peak_rss_mb", "MB", "lower", "peak_rss_mb",
           ("logs.read_ras",), _ALL),
    _t("logs.read_job_s", "logs.read_job", _ALL),
    _t("parallel.read_ras_s", "parallel.read_ras", _WARM),
    _t("parallel.cache_store_s", "parallel.cache_store", _WARM),
    Metric("parallel.cache_bytes", "bytes", "lower", "bytes",
           ("parallel.cache_load", "parallel.cache_store"), _WARM),
    _t("parallel.cache_load_s", "parallel.cache_load", _WARM),
    _t("core.extract_s", "core.extract", _ALL),
    Metric("core.extract_rows", "count", "higher", "rows",
           ("core.extract",), _ALL),
    *(
        m
        for stage in ("temporal", "spatial", "causal")
        for m in (
            _t(f"core.filter.{stage}_s", f"core.filter.{stage}", _ALL),
            Metric(f"core.filter.{stage}_rows_out", "count", "higher",
                   "rows", (f"core.filter.{stage}",), _ALL),
        )
    ),
    Metric("core.filter.kept_ratio", "ratio", "higher", "kept_ratio",
           ("core.filter.causal",), _ALL),
    _t("core.match_s", "core.match", _ALL),
    Metric("core.match_pairs", "count", "higher", "rows",
           ("core.match",), _ALL),
    _t("core.identify_s", "core.identify", _ALL),
    _t("core.classify_s", "core.classify", _ALL),
    _t("core.job_filter_s", "core.job_filter", _ALL),
    *(
        _t(f"core.studies.{study}_s", f"core.studies.{study}", _ALL)
        for study in STUDIES
    ),
    _t("core.studies_s", "core.studies", _ALL, stat="wall"),
    Metric("core.studies.overlap_ratio", "ratio", "higher", "overlap_ratio",
           ("core.studies",), _ALL),
    _t("core.observations_s", "core.observations", _ALL),
    Metric("trace.overhead_ratio", "ratio", "lower", "twin", (), _ALL),
    Metric("trace.unattributed_s", "s", "lower", "unattributed", (), _ALL),
)

#: the largest share of a traced pass its layer spans may leave uncovered
MAX_UNATTRIBUTED_SHARE = 0.10

#: spans that frame other calls rather than time a layer (the CLI entry
#: point and the pipeline's top-level methods): their self time is work
#: between the layer calls that no wrapper saw, such as a new or renamed
#: stage, so it counts as unattributed, not as any layer's
FRAMES = frozenset({"cli.main", "core.run", "core.complete"})


# ----------------------------------------------------------------------
# wrappers


def _log_table(args, kwargs) -> str:
    table = kwargs["table"] if "table" in kwargs else args[1]
    return f"logs.read_{table}"


def _rows_len(out, args):
    return {"rows": len(out)}


def _rows_frame(out, args):
    return {"rows": out.num_rows}


def _rows_log_frame(out, args):
    return {"rows": out[0].num_rows}


def _rows_pairs(out, args):
    return {"rows": out.pairs.num_rows}


def _cache_entry_bytes(cache, key) -> int:
    return sum(_size(p) for p in cache._paths(key))


def _cache_load_bytes(out, args):
    return {"bytes": 0 if out is None else _cache_entry_bytes(*args[:2])}


def _cache_store_bytes(out, args):
    return {"bytes": _cache_entry_bytes(*args[:2])}


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


#: (module, class or None, attribute, span name or namer, annotate)
TARGETS = (
    ("repro.logs.textio", None, "read_log_frame", _log_table,
     _rows_log_frame),
    ("repro.parallel.ingest", None, "parallel_read_ras_frame",
     "parallel.read_ras", _rows_frame),
    ("repro.parallel.cache", "ParseCache", "load", "parallel.cache_load",
     _cache_load_bytes),
    ("repro.parallel.cache", "ParseCache", "store", "parallel.cache_store",
     _cache_store_bytes),
    ("repro.core.pipeline", "CoAnalysis", "run", "core.run", None),
    ("repro.core.pipeline", "CoAnalysis", "complete", "core.complete", None),
    ("repro.core.pipeline", "CoAnalysis", "_run_studies", "core.studies",
     None),
    ("repro.core.pipeline", None, "fatal_event_table", "core.extract",
     _rows_len),
    ("repro.core.filtering.temporal", "TemporalFilter", "apply",
     "core.filter.temporal", _rows_len),
    ("repro.core.filtering.spatial", "SpatialFilter", "apply",
     "core.filter.spatial", _rows_len),
    ("repro.core.filtering.causal", "CausalityFilter", "apply",
     "core.filter.causal", _rows_len),
    ("repro.core.matching", "InterruptionMatcher", "match", "core.match",
     _rows_pairs),
    ("repro.core.identify", "EventTypeIdentifier", "identify",
     "core.identify", None),
    ("repro.core.classify", "FailureClassifier", "classify",
     "core.classify", None),
    ("repro.core.filtering.job_related", "JobRelatedFilter",
     "redundant_ids", "core.job_filter", None),
    ("repro.core.pipeline", None, "interarrival_study",
     "core.studies.interarrivals", None),
    ("repro.core.pipeline", None, "interruption_rate_study",
     "core.studies.rates", None),
    ("repro.core.pipeline", None, "midplane_profile",
     "core.studies.midplane_profile", None),
    ("repro.core.pipeline", None, "midplane_skew", "core.studies.skew", None),
    ("repro.core.pipeline", None, "burst_study", "core.studies.bursts", None),
    ("repro.core.pipeline", None, "propagation_study",
     "core.studies.propagation", None),
    ("repro.core.pipeline", None, "vulnerability_study",
     "core.studies.vulnerability", None),
    ("repro.core.pipeline", None, "compute_observations",
     "core.observations", None),
    ("repro.core.report", None, "render_report", "core.report", None),
)


class Recorder:
    """Records spans around every entry point in :data:`TARGETS`.

    :meth:`install` patches the targets; a missing one is an error, not
    a silent gap, since a renamed function would otherwise zero its
    layer.
    """

    def __init__(self):
        from repro.obs import Tracer

        self.tracer = Tracer(sample_resources=True)

    def install(self) -> None:
        """Patch the targets."""
        for module_name, owner_name, attr, name, annotate in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, annotate))

    def _wrap(self, fn, name, annotate):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with self.tracer.span(span_name) as sp:
                out = fn(*args, **kwargs)
            # annotations are computed after the span closed, so their
            # own cost never counts as the layer's time
            if annotate is not None:
                for key, value in annotate(out, args).items():
                    if key == "rows":
                        sp.rows = int(value)
                    else:
                        sp.attrs[key] = int(value)
            return out

        return wrapper


# ----------------------------------------------------------------------
# span accounting


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self seconds per span id: wall minus the union its children cover."""
    children: dict[int, list[dict]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(sp)
    out = {}
    for sp in spans:
        lo, hi = sp["start_s"], sp["start_s"] + sp["wall_s"]
        covered = _union_length(
            [
                (max(lo, c["start_s"]), min(hi, c["start_s"] + c["wall_s"]))
                for c in children.get(sp["id"], ())
                if c["start_s"] < hi and c["start_s"] + c["wall_s"] > lo
            ]
        )
        out[sp["id"]] = max(0.0, sp["wall_s"] - covered)
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self seconds summed per layer; the benchmark's root span and the
    :data:`FRAMES` belong to none."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for sp in spans:
        if sp["parent"] is not None and sp["name"] not in FRAMES:
            layer = sp["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + selfs[sp["id"]]
    return out


def span_calls(spans: list[dict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for sp in spans:
        out[sp["name"]] = out.get(sp["name"], 0) + 1
    return out


def unattributed_s(spans: list[dict], region_s: float) -> float:
    """Traced wall time no layer span accounts for: the part outside
    every top-level span plus the self time of the :data:`FRAMES`."""
    selfs = self_times(spans)
    root = {sp["id"] for sp in spans if sp["parent"] is None}
    top = sum(sp["wall_s"] for sp in spans if sp["parent"] in root)
    framed = sum(selfs[sp["id"]] for sp in spans if sp["name"] in FRAMES)
    return max(0.0, region_s - top) + framed


def span_metrics(spans: list[dict], region_s: float) -> dict[str, float]:
    """Every span-derived metric of :data:`METRICS` for one traced pass.

    Metrics of layers the pass never called read 0. The ``twin`` stats
    are left to ``run_traced``.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)

    def pick(names):
        return [sp for n in names for sp in by_name.get(n, ())]

    def total(names, key):
        return sum(
            selfs[sp["id"]] if key == "self" else sp[key] for sp in pick(names)
        )

    def rows(name):
        return sum(max(sp["rows"], 0) for sp in by_name.get(name, ()))

    out: dict[str, float] = {}
    for m in METRICS:
        if m.stat in ("self", "wall"):
            out[m.name] = total(m.spans, "self" if m.stat == "self" else "wall_s")
        elif m.stat == "rows":
            out[m.name] = rows(m.spans[0])
        elif m.stat == "bytes":
            out[m.name] = sum(
                sp["attrs"].get("bytes", 0) for sp in pick(m.spans)
            )
        elif m.stat == "rows_per_s":
            wall = total(m.spans, "wall_s")
            out[m.name] = rows(m.spans[0]) / wall if wall > 0 else 0.0
        elif m.stat == "peak_rss_mb":
            out[m.name] = max(
                (sp["attrs"].get("max_rss_kb", 0) for sp in pick(m.spans)),
                default=0,
            ) / 1024.0
        elif m.stat == "kept_ratio":
            raw = rows("core.extract")
            out[m.name] = rows("core.filter.causal") / raw if raw else 0.0
        elif m.stat == "overlap_ratio":
            wave = total(("core.studies",), "wall_s")
            studies = total(
                tuple(f"core.studies.{s}" for s in STUDIES), "wall_s"
            )
            out[m.name] = studies / wave if wave > 0 else 0.0
        elif m.stat == "unattributed":
            out[m.name] = unattributed_s(spans, region_s)
    return out


def coverage_problems(
    workload: str, spans: list[dict], region_s: float
) -> list[str]:
    """Why this traced pass cannot be trusted (empty when it can)."""
    calls = span_calls(spans)
    problems = [
        f"{m.name}: no call to {' / '.join(m.spans)} on {workload}"
        for m in METRICS
        if workload in m.workloads
        and m.spans
        and not any(calls.get(s, 0) for s in m.spans)
    ]
    loose = unattributed_s(spans, region_s)
    if loose > MAX_UNATTRIBUTED_SHARE * region_s:
        problems.append(
            f"trace.unattributed_s: {loose:.3f} s of {region_s:.3f} s traced"
            f" is outside every layer span (limit"
            f" {MAX_UNATTRIBUTED_SHARE:.0%})"
        )
    return problems
