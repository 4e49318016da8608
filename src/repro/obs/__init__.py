"""repro.obs — the pipeline's own telemetry plane.

Log-analysis tooling at production scale needs to be observable itself:
this package provides hierarchical tracing (:mod:`repro.obs.trace`),
a process-wide metrics registry (:mod:`repro.obs.metrics`) and the
schema-versioned JSONL run manifest plus perf-trajectory exporter
(:mod:`repro.obs.manifest`). Instrumentation points throughout the
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

from repro.obs.alerts import AlertEngine, AlertEvent, AlertRule
from repro.obs.health import (
    HealthThresholds,
    evaluate_health,
    probe_health,
    read_health,
    write_health,
)
from repro.obs.live import (
    LiveTelemetry,
    MetricRing,
    MetricSample,
    MetricsSampler,
    accumulate_samples,
    sample_value,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    config_fingerprint,
    git_rev,
    read_manifest,
    record_bench,
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
from repro.obs.opslog import (
    OPS_SCHEMA_VERSION,
    OpsLog,
    read_ops_log,
    validate_ops_log,
)
from repro.obs.trace import (
    Span,
    Tracer,
    collect_spans,
    current_span_id,
    current_tracer,
    maybe_span,
)

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
    "validate_ops_log",
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
    "record_bench",
    "validate_manifest",
    "write_manifest",
]
