"""Tracer behavior: nesting, attach, ambient activation, propagation."""

import contextvars
from concurrent.futures import ThreadPoolExecutor

from repro.obs import (
    Tracer,
    current_span_id,
    current_tracer,
    maybe_span,
)


class TestAmbient:
    def test_no_tracer_by_default(self):
        assert current_tracer() is None
        assert current_span_id() is None

    def test_maybe_span_times_but_records_nothing_without_tracer(self):
        with maybe_span("anything", note="n", k=1) as sp:
            sp.rows = 3
            assert current_span_id() is None
        assert (sp.name, sp.rows, sp.note, sp.attrs) == (
            "anything", 3, "n", {"k": 1}
        )
        assert sp.wall_s >= 0.0 and sp.span_id == 0

    def test_activate_installs_and_uninstalls(self):
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_activate_opens_root_span(self):
        tracer = Tracer()
        with tracer.activate(root="run"):
            pass
        (root,) = tracer.spans
        assert root.name == "run"
        assert root.parent_id is None

    def test_activate_without_root(self):
        tracer = Tracer()
        with tracer.activate(root=None):
            with tracer.span("only"):
                pass
        (only,) = tracer.spans
        assert only.parent_id is None


class TestNesting:
    def test_nested_spans_link_to_parent(self):
        tracer = Tracer()
        with tracer.activate(root="run"):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent_id == outer.span_id
        assert by_name["outer"].parent_id == by_name["run"].span_id
        assert inner.wall_s >= 0.0
        assert outer.wall_s >= inner.wall_s

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.activate(root="run"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = (s for s in tracer.spans if s.name in "ab")
        assert a.parent_id == b.parent_id

    def test_rows_note_attrs_survive(self):
        tracer = Tracer()
        with tracer.activate(root=None):
            with tracer.span("stage", note="4 workers", k=1) as sp:
                sp.rows = 42
        (span,) = tracer.spans
        assert (span.rows, span.note, span.attrs["k"]) == (42, "4 workers", 1)

    def test_as_record_stringifies_non_json_attrs(self):
        tracer = Tracer()
        with tracer.activate(root=None):
            with tracer.span("s", path=object()):
                pass
        record = tracer.spans[0].as_record()
        assert record["type"] == "span"
        assert isinstance(record["attrs"]["path"], str)

    def test_span_names(self):
        tracer = Tracer()
        with tracer.activate(root="run"):
            with tracer.span("x"):
                pass
        assert tracer.span_names() == {"run", "x"}


class TestIsolation:
    def test_spans_take_parents_only_from_their_own_tracer(self):
        """An inactive tracer's spans interleaved with an active one's
        (the e2e benchmark's outside-in recorder around the program's
        own spans) link only to spans of the same tracer."""
        a, b = Tracer(), Tracer()
        with b.activate(root=None):
            with b.span("warmup"):  # the two tracers' ids now differ
                pass
            with a.span("core.run") as run:
                with b.span("extract") as extract:
                    with a.span("core.extract") as inner:
                        pass
        assert inner.parent_id == run.span_id
        assert extract.parent_id is None


class TestAttach:
    def test_attach_parents_under_current_span(self):
        tracer = Tracer()
        with tracer.activate(root="run"):
            with tracer.span("ingest") as ingest:
                tracer.attach("chunk", wall_s=0.5, cpu_s=0.4, rows=10)
        chunk = next(s for s in tracer.spans if s.name == "chunk")
        assert chunk.parent_id == ingest.span_id
        assert chunk.wall_s == 0.5
        assert chunk.cpu_s == 0.4
        assert chunk.rows == 10

    def test_attach_explicit_none_parent_makes_root(self):
        tracer = Tracer()
        with tracer.activate(root="run"):
            tracer.attach("orphan", wall_s=0.1, parent_id=None)
        orphan = next(s for s in tracer.spans if s.name == "orphan")
        assert orphan.parent_id is None

    def test_attach_backdates_start(self):
        tracer = Tracer()
        with tracer.activate(root="run") as t:
            sp = t.attach("late", wall_s=1.0)
        assert sp.start_s >= 0.0  # clamped, never negative


class TestThreadPropagation:
    def test_copied_context_carries_tracer_and_parent(self):
        tracer = Tracer()

        def work():
            with maybe_span("task"):
                pass

        with tracer.activate(root="run"):
            with tracer.span("studies") as studies:
                with ThreadPoolExecutor(max_workers=2) as pool:
                    ctxs = [contextvars.copy_context() for _ in range(3)]
                    futures = [pool.submit(c.run, work) for c in ctxs]
                    for f in futures:
                        f.result()
        tasks = [s for s in tracer.spans if s.name == "task"]
        assert len(tasks) == 3
        assert all(t.parent_id == studies.span_id for t in tasks)

    def test_bare_pool_thread_sees_no_tracer(self):
        tracer = Tracer()
        with tracer.activate(root="run"):
            with ThreadPoolExecutor(max_workers=1) as pool:
                assert pool.submit(current_tracer).result() is None


class TestResources:
    def test_sample_resources_records_peak_rss(self):
        tracer = Tracer(sample_resources=True)
        with tracer.activate(root=None):
            with tracer.span("s"):
                pass
        attrs = tracer.spans[0].attrs
        assert attrs.get("max_rss_kb", 0) > 0

    def test_resources_off_by_default(self):
        tracer = Tracer()
        with tracer.activate(root=None):
            with tracer.span("s"):
                pass
        assert "max_rss_kb" not in tracer.spans[0].attrs
