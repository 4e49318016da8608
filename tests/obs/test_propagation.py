"""Span propagation across fork workers and the study thread pool.

The merged manifest of a chunk-parallel ingestion must carry one
``ingest.parse.chunk`` child span per planned chunk, and a serial run
must produce the same span-*name* set as a parallel one — the telemetry
shape is independent of the execution strategy.
"""

import numpy as np
import pytest

from repro.core import CoAnalysis
from repro.frame import Frame
from repro.logs.ras import RAS_COLUMNS, RasLog
from repro.logs.textio import read_ras_log, write_ras_log
from repro.obs import Tracer, get_metrics
from repro.parallel.chunking import plan_chunks, scan_header
from repro.simulate import CalibrationProfile, IntrepidSimulation

N_ROWS = 3_000


def small_ras_log(n: int = N_ROWS, seed: int = 11) -> RasLog:
    rng = np.random.default_rng(seed)
    sev = np.array(["INFO", "WARN", "ERROR", "FATAL"], dtype=object)
    comp = np.array(["KERNEL", "MMCS", "CARD", "MC"], dtype=object)
    data = {
        "recid": np.arange(1, n + 1, dtype=np.int64),
        "msg_id": np.array([f"KERN_{i % 7:04d}" for i in range(n)], dtype=object),
        "component": comp[rng.integers(0, len(comp), n)],
        "subcomponent": np.array(["sub0"] * n, dtype=object),
        "errcode": np.array(["_bgp_err_0"] * n, dtype=object),
        "severity": sev[rng.integers(0, len(sev), n)],
        "event_time": np.cumsum(rng.random(n)) + 1.2e9,
        "location": np.array([f"R{i % 4:02d}-M{i % 2}" for i in range(n)], dtype=object),
        "serialnumber": np.array([f"SN{i:06d}" for i in range(n)], dtype=object),
        "message": np.array(["machine check interrupt"] * n, dtype=object),
    }
    return RasLog(Frame({c: data[c] for c in RAS_COLUMNS}))


@pytest.fixture(scope="module")
def ras_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "ras.log"
    write_ras_log(small_ras_log(), path)
    return path


def _parse_chunk_spans(tracer):
    return [s for s in tracer.spans if s.name == "ingest.parse.chunk"]


class TestForkWorkerPropagation:
    def test_one_child_span_per_chunk(self, ras_file):
        _, data_start = scan_header(ras_file)
        planned = plan_chunks(str(ras_file), 3, data_start)
        tracer = Tracer()
        get_metrics().reset()
        with tracer.activate(root="run") as t:
            with t.span("ingest.ras") as ingest:
                log = read_ras_log(ras_file, policy="quarantine", workers=3)
        chunks = _parse_chunk_spans(tracer)
        assert len(chunks) == len(planned) == 3
        assert all(c.parent_id == ingest.span_id for c in chunks)
        # the workers' self-measurements came home with the chunks
        assert all(c.wall_s > 0.0 for c in chunks)
        assert all(c.attrs["bytes"] > 0 for c in chunks)
        assert sum(c.rows for c in chunks) == len(log)
        assert get_metrics().value("ingest.chunk.records") == len(log)

    def test_serial_and_parallel_same_span_names(self, ras_file):
        names = []
        for workers in (1, 3):
            tracer = Tracer()
            get_metrics().reset()
            with tracer.activate(root="run"):
                read_ras_log(ras_file, policy="quarantine", workers=workers)
            names.append(tracer.span_names())
        assert names[0] == names[1]
        assert "ingest.parse.chunk" in names[0]

    def test_inline_fallback_still_attaches(self, ras_file):
        # workers=2 but a single planned chunk runs inline, not pooled
        _, data_start = scan_header(ras_file)
        from repro.parallel.ingest import parallel_read_ras_frame

        tracer = Tracer()
        get_metrics().reset()
        with tracer.activate(root="run"):
            parallel_read_ras_frame(
                ras_file,
                policy="quarantine",
                workers=2,
                chunk_bounds=plan_chunks(str(ras_file), 1, data_start),
            )
        assert len(_parse_chunk_spans(tracer)) == 1


class TestStudyWavePropagation:
    def test_study_spans_nest_under_studies(self):
        profile = CalibrationProfile(seed=3, scale=0.02)
        trace = IntrepidSimulation(profile).run()
        tracer = Tracer()
        get_metrics().reset()
        with tracer.activate(root="run"):
            CoAnalysis(study_workers=2).run(trace.ras_log, trace.job_log)
        studies = next(s for s in tracer.spans if s.name == "studies")
        children = [
            s for s in tracer.spans if s.name.startswith("studies.")
        ]
        assert children, "no per-study spans recorded"
        assert all(c.parent_id == studies.span_id for c in children)

    def test_serial_and_concurrent_studies_same_names(self):
        profile = CalibrationProfile(seed=3, scale=0.02)
        trace = IntrepidSimulation(profile).run()
        names = []
        for workers in (1, 2):
            tracer = Tracer()
            get_metrics().reset()
            with tracer.activate(root="run"):
                CoAnalysis(study_workers=workers).run(
                    trace.ras_log, trace.job_log
                )
            names.append(tracer.span_names())
        assert names[0] == names[1]


class TestOneSpanPerStage:
    def test_no_stage_nests_in_its_namesake_and_timings_are_the_spans(self):
        """Each stage is timed once: no span sits inside a span of the
        same name (``observations`` used to), and every timing row is
        the very span object the tracer recorded."""
        profile = CalibrationProfile(seed=3, scale=0.02)
        trace = IntrepidSimulation(profile).run()
        tracer = Tracer()
        with tracer.activate(root="run"):
            result = CoAnalysis(study_workers=1).run(
                trace.ras_log, trace.job_log
            )
        by_id = {s.span_id: s for s in tracer.spans}
        nested = [
            s.name
            for s in tracer.spans
            if s.parent_id in by_id and by_id[s.parent_id].name == s.name
        ]
        assert nested == []
        recorded = {id(s) for s in tracer.spans}
        assert result.timings
        assert all(id(t) in recorded for t in result.timings)
