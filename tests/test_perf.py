"""The flat stage-timing view over spans (``render_timings``): rates,
zero-duration stages, wide labels, notes and the nested total."""

import math

from repro.obs import Span, Tracer
from repro.viz.trace import render_timings


def span(name, wall_s, rows=-1, note="", span_id=0, parent_id=None):
    return Span(span_id, parent_id, name, 0.0, wall_s=wall_s, rows=rows,
                note=note)


class TestRowsPerS:
    def test_normal_rate(self):
        assert span("s", wall_s=2.0, rows=100).rows_per_s == 50.0

    def test_no_rows_is_nan(self):
        assert math.isnan(span("s", wall_s=1.0).rows_per_s)

    def test_zero_duration_is_nan(self):
        # a stage can finish inside one clock tick; the rate must not
        # divide by zero or render as "inf"
        assert math.isnan(span("s", wall_s=0.0, rows=100).rows_per_s)

    def test_render_matches_nan_semantics(self):
        out = render_timings([
            span("instant", wall_s=0.0, rows=100, span_id=1),
            span("counted", wall_s=2.0, rows=100, span_id=2),
            span("uncounted", wall_s=1.0, span_id=3),
        ])
        lines = {line.split()[0]: line for line in out.splitlines()}
        assert lines["instant"].rstrip().endswith("-")
        assert lines["counted"].rstrip().endswith("50")
        assert lines["uncounted"].rstrip().endswith("-")
        assert "inf" not in out


class TestRenderWidth:
    def test_long_labels_widen_the_column(self):
        long = "a.particularly.long.stage.name.well.past.the.default"
        out = render_timings([
            span(long, wall_s=0.5, rows=10, span_id=1),
            span("short", wall_s=0.5, rows=10, span_id=2),
        ])
        header, first, second, total = out.splitlines()[1:]
        width = len(long)
        # every row pads the stage column to the longest label
        assert first.startswith(long + " ")
        assert second.startswith("short".ljust(width) + " ")
        assert total.startswith("total".ljust(width) + " ")
        assert header.startswith("stage".ljust(width) + " ")

    def test_note_counts_toward_width(self):
        label = "stage.with.a.long.note"
        note = "forty.two.workers.on.a.rainy.day"
        out = render_timings([span(label, 0.1, note=note)])
        assert f"{label}[{note}]" in out


class TestTotal:
    @staticmethod
    def total_ms(out):
        return float(out.splitlines()[-1].split()[1].removesuffix("ms"))

    def test_nested_spans_count_once(self):
        tracer = Tracer()
        with tracer.activate(root=None):
            with tracer.span("outer"):
                with tracer.span("outer.inner"):
                    pass
            with tracer.span("other"):
                pass
        spans = tracer.spans
        walls = {s.name: s.wall_s for s in spans}
        expected = 1e3 * (walls["outer"] + walls["other"])
        assert abs(self.total_ms(render_timings(spans)) - expected) < 0.01

    def test_total_follows_parent_links_not_names(self):
        # a dotted name whose parent span is absent still counts, and a
        # child with an undotted name does not
        out = render_timings([
            span("match.join", 0.25, span_id=1),
            span("studies", 1.0, span_id=2),
            span("bursts", 0.5, span_id=3, parent_id=2),
        ])
        assert self.total_ms(out) == 1250.0
