"""Hierarchical tracing for the co-analysis pipeline.

A :class:`Tracer` collects a tree of :class:`Span` records — name, wall
and CPU seconds, row count, free-form attributes, parent linkage — for
one run. The span is the codebase's one timing primitive: every
pipeline stage (``extract``, ``filter.temporal``, ``match.join``,
``studies.bursts``, ...) is a span, and the flat ``--timings`` table
(:func:`repro.viz.trace.render_timings`) is a view over the same
records that ``repro trace`` renders as a tree.

The tracer is **ambient**: :meth:`Tracer.activate` installs it in a
:mod:`contextvars` context, and every instrumentation point asks
:func:`current_tracer` whether anyone is listening. :func:`maybe_span`
always times its body and yields the :class:`Span`, so a caller can
read ``sp.wall_s`` either way; the span joins a tree only when a tracer
is active. :func:`collect_spans` gathers the spans a call closed, under
a private tracer when none is active — that is how
``CoAnalysisResult.timings`` is filled.

Propagation rules:

* **same thread** — nesting follows the ``with tracer.span(...)`` stack
  via a ContextVar, so ``filter.temporal`` opened inside ``filter``
  becomes its child without either site knowing about the other. Each
  tracer keeps its own current-span variable, so a span takes its
  parent only from its own tracer: spans of an inactive tracer (the
  e2e benchmark's outside-in recorder) and of the active one interleave
  without adopting each other;
* **the study thread pool** — ContextVars do not flow into pool threads
  by themselves; ``CoAnalysis._run_studies`` captures
  ``contextvars.copy_context()`` per task and the copied context carries
  both the active tracer and the current parent span;
* **fork workers** — a RAS parse worker process cannot append to the
  parent's span list; workers measure themselves (wall, CPU, rows,
  bytes) and ship the numbers back in their result payload, which the
  parent re-attaches under the current span via :meth:`Tracer.attach`.

With ``sample_resources=True`` every closing span also records the
process peak RSS (``ru_maxrss``) and, when :mod:`tracemalloc` is
already tracing (the tracer never starts it — that would blow the
overhead budget), the current/peak traced heap.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Span",
    "Tracer",
    "collect_spans",
    "current_tracer",
    "current_span_id",
    "maybe_span",
]

_ACTIVE: contextvars.ContextVar["Tracer | None"] = contextvars.ContextVar(
    "repro_obs_active_tracer", default=None
)
#: distinguishes "parent not given" from an explicit ``parent_id=None``
_UNSET = object()


@dataclass
class Span:
    """One timed region of the run, linked into the span tree."""

    span_id: int
    parent_id: int | None
    name: str
    #: seconds since the tracer's epoch when the span opened (gives the
    #: renderer a stable sibling order even across threads)
    start_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rows: int = -1
    note: str = ""
    #: "ok" | "error" — error means the body raised through the span;
    #: the exception type lands in ``attrs["error.type"]``
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def stage(self) -> str:
        """The stage label of the flat timing view (the span name)."""
        return self.name

    @property
    def rows_per_s(self) -> float:
        """Rows per second; NaN when no rows were recorded or the span
        closed in zero wall time (the timing view prints ``-``)."""
        if self.rows < 0 or self.wall_s <= 0.0:
            return math.nan
        return self.rows / self.wall_s

    def as_record(self) -> dict:
        """The manifest line for this span (JSON-safe)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "rows": self.rows,
            "note": self.note,
            "status": self.status,
            "attrs": _json_safe(self.attrs),
        }


def _json_safe(attrs: dict) -> dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[str(key)] = value
        else:
            out[str(key)] = str(value)
    return out


class Tracer:
    """Collects the span tree for one run (thread-safe)."""

    def __init__(self, sample_resources: bool = False):
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()
        # this tracer's innermost open span; per tracer, so spans of two
        # tracers never become each other's parents
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar("repro_obs_current_span", default=None)
        )
        self.sample_resources = sample_resources

    @property
    def spans(self) -> tuple[Span, ...]:
        """Completed spans, ordered by start time then id."""
        with self._lock:
            spans = list(self._spans)
        return tuple(sorted(spans, key=lambda s: (s.start_s, s.span_id)))

    def span_names(self) -> set[str]:
        with self._lock:
            return {s.name for s in self._spans}

    # ------------------------------------------------------------------

    @contextmanager
    def activate(self, root: str | None = "run") -> Iterator["Tracer"]:
        """Install this tracer as the ambient one for the body.

        *root* opens an enclosing span of that name so every span in
        the run hangs off a single tree root; pass ``None`` to activate
        without one.
        """
        token = _ACTIVE.set(self)
        try:
            if root is None:
                yield self
            else:
                with self.span(root):
                    yield self
        finally:
            _ACTIVE.reset(token)

    @contextmanager
    def span(self, name: str, note: str = "", **attrs) -> Iterator[Span]:
        """Open a child of this tracer's current span for the body."""
        sp = Span(
            span_id=next(self._ids),
            parent_id=self._current.get(),
            name=name,
            start_s=time.perf_counter() - self._epoch,
            note=note,
            attrs=dict(attrs),
        )
        token = self._current.set(sp.span_id)
        try:
            with _timed(sp):
                yield sp
        finally:
            self._current.reset(token)
            if self.sample_resources:
                _sample_resources(sp)
            with self._lock:
                self._spans.append(sp)

    def attach(
        self,
        name: str,
        wall_s: float,
        cpu_s: float = 0.0,
        rows: int = -1,
        note: str = "",
        parent_id: "int | None" = _UNSET,  # type: ignore[assignment]
        status: str = "ok",
        **attrs,
    ) -> Span:
        """Record a span measured elsewhere (e.g. in a fork worker).

        The span becomes a child of the current span unless *parent_id*
        is given explicitly. ``start_s`` is back-dated by *wall_s* from
        the attach instant — the worker's own clock does not translate
        across processes.
        """
        sp = Span(
            span_id=next(self._ids),
            parent_id=(
                self._current.get() if parent_id is _UNSET else parent_id
            ),
            name=name,
            start_s=max(0.0, time.perf_counter() - self._epoch - wall_s),
            wall_s=wall_s,
            cpu_s=cpu_s,
            rows=rows,
            note=note,
            status=status,
            attrs=dict(attrs),
        )
        with self._lock:
            self._spans.append(sp)
        return sp


def _sample_resources(span: Span) -> None:
    """Peak-RSS / traced-heap snapshot onto a closing span (best effort)."""
    try:
        import resource

        span.attrs["max_rss_kb"] = int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
    except Exception:  # noqa: BLE001 - absent on some platforms
        pass
    import tracemalloc

    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        span.attrs["traced_kb"] = current // 1024
        span.attrs["traced_peak_kb"] = peak // 1024


@contextmanager
def _timed(sp: Span) -> Iterator[Span]:
    """Time the body into *sp*; a body that raises marks it ``error``."""
    t0 = time.perf_counter()
    c0 = time.thread_time()
    try:
        yield sp
    except BaseException as exc:
        # the stage failed through this span: record it, then let the
        # error boundary (or the caller) decide what to do
        sp.status = "error"
        sp.attrs.setdefault("error.type", type(exc).__name__)
        raise
    finally:
        sp.wall_s = time.perf_counter() - t0
        sp.cpu_s = time.thread_time() - c0


def current_tracer() -> Tracer | None:
    """The ambient tracer, or ``None`` when telemetry is off."""
    return _ACTIVE.get()


def current_span_id() -> int | None:
    """The id of the ambient tracer's innermost open span, if any."""
    tracer = _ACTIVE.get()
    return None if tracer is None else tracer._current.get()


@contextmanager
def maybe_span(name: str, note: str = "", **attrs) -> Iterator[Span]:
    """A timed span of the ambient tracer, or, with none active, a
    timed :class:`Span` that joins no tree (``span_id`` 0)."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        with tracer.span(name, note=note, **attrs) as sp:
            yield sp
        return
    sp = Span(0, None, name, 0.0, note=note, attrs=dict(attrs))
    with _timed(sp):
        yield sp


@contextmanager
def collect_spans() -> Iterator[list[Span]]:
    """Yield a list that, when the body exits, holds the spans the body
    closed below the ambient tracer's current span, in start order.

    With no tracer active a private one is activated for the body,
    without a root span, so the body's spans are still recorded. Spans
    other threads closed meanwhile elsewhere in the tree are left out:
    a span counts only if its parent chain reaches the span that was
    current at entry.
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        with Tracer().activate(root=None), collect_spans() as spans:
            yield spans
        return
    entry = tracer._current.get()
    with tracer._lock:
        mark = len(tracer._spans)
    out: list[Span] = []
    try:
        yield out
    finally:
        with tracer._lock:
            closed = tracer._spans[mark:]
        by_id = {sp.span_id: sp for sp in closed}

        def below_entry(sp: Span) -> bool:
            while sp.parent_id in by_id:
                sp = by_id[sp.parent_id]
            return sp.parent_id == entry

        out.extend(
            sorted(
                filter(below_entry, closed),
                key=lambda sp: (sp.start_s, sp.span_id),
            )
        )
