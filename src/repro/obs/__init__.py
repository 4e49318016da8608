"""repro.obs — the pipeline's own telemetry plane.

Log-analysis tooling at production scale needs to be observable itself:
this package provides hierarchical tracing (:mod:`repro.obs.trace`),
a process-wide metrics registry (:mod:`repro.obs.metrics`) and the
schema-versioned JSONL run manifest (:mod:`repro.obs.manifest`). Instrumentation points throughout the
pipeline probe :func:`current_tracer` — with no tracer active the cost
is one ContextVar read, so telemetry-off runs pay effectively nothing.

Typical use::

    from repro.obs import Tracer, get_metrics, write_manifest

    tracer = Tracer(sample_resources=True)
    get_metrics().reset()
    with tracer.activate():
        result = CoAnalysis().run(ras_log, job_log)
    write_manifest("run.jsonl", tracer=tracer, metrics=get_metrics(),
                   config={"tolerance": 60.0},
                   observations=result.observations)
"""

import importlib

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    config_fingerprint,
    git_rev,
    read_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MonotonicGauge,
    get_metrics,
)
from repro.obs.trace import (
    Span,
    Tracer,
    collect_spans,
    current_span_id,
    current_tracer,
    maybe_span,
)

#: the live-operations names (alerts, health, live sampling, ops log),
#: imported on first use so that a batch run, which never reads them,
#: does not load their modules
_LAZY = {
    "AlertEngine": "alerts",
    "AlertEvent": "alerts",
    "AlertRule": "alerts",
    "HealthThresholds": "health",
    "evaluate_health": "health",
    "probe_health": "health",
    "read_health": "health",
    "write_health": "health",
    "LiveTelemetry": "live",
    "MetricRing": "live",
    "MetricSample": "live",
    "MetricsSampler": "live",
    "accumulate_samples": "live",
    "sample_value": "live",
    "OPS_SCHEMA_VERSION": "opslog",
    "OpsLog": "opslog",
    "read_ops_log": "opslog",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return getattr(module, name)


__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "OPS_SCHEMA_VERSION",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "HealthThresholds",
    "LiveTelemetry",
    "MetricRing",
    "MetricSample",
    "MetricsSampler",
    "OpsLog",
    "accumulate_samples",
    "evaluate_health",
    "probe_health",
    "read_health",
    "read_ops_log",
    "sample_value",
    "write_health",
    "Span",
    "Tracer",
    "collect_spans",
    "current_span_id",
    "current_tracer",
    "maybe_span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MonotonicGauge",
    "get_metrics",
    "config_fingerprint",
    "git_rev",
    "read_manifest",
    "validate_manifest",
    "write_manifest",
]
