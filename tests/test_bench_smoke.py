"""Tier-1 smoke coverage for the performance benchmarks.

The full benchmarks live under ``benchmarks/`` and only run when named
explicitly; this keeps their helpers (workload generator, matcher
comparison) honest on every test run at a tiny scale.
"""

import numpy as np

from benchmarks.bench_perf_filtering import make_match_workload, make_stream
from repro.core import InterruptionMatcher
from repro.obs import Tracer
from repro.viz.trace import render_timings
from tests.core.matching_reference import ReferenceInterruptionMatcher


class TestMatchWorkloadGenerator:
    def test_shapes_and_schema(self):
        ev, jl = make_match_workload(100, 250, seed=3)
        assert len(ev) == 100
        assert jl.num_jobs == 250
        # events carry valid midplane spans
        assert (ev.frame["mp_lo"] <= ev.frame["mp_hi"]).all()
        assert (ev.frame["mp_lo"] >= 0).all()
        assert (ev.frame["mp_hi"] < 80).all()
        # every job location parses to a legal partition of its size
        from repro.machine.partition import parse_partition

        for loc, size in zip(
            jl.frame["location"], jl.frame["size_midplanes"]
        ):
            assert parse_partition(loc).size == size

    def test_deterministic_per_seed(self):
        a, _ = make_match_workload(50, 100, seed=9)
        b, _ = make_match_workload(50, 100, seed=9)
        assert np.array_equal(a.frame["event_time"], b.frame["event_time"])

    def test_workload_produces_matches(self):
        ev, jl = make_match_workload(200, 400, seed=1)
        assert InterruptionMatcher().match(ev, jl).pairs.num_rows > 0


class TestTinyScaleEquivalence:
    def test_vectorized_equals_reference(self):
        ev, jl = make_match_workload(120, 300, seed=5)
        ref = ReferenceInterruptionMatcher().match(ev, jl, raw_events=ev)
        vec = InterruptionMatcher().match(ev, jl, raw_events=ev)
        for col in ref.pairs.columns:
            assert np.array_equal(ref.pairs[col], vec.pairs[col]), col
        assert ref.event_cases == vec.event_cases

    def test_vectorized_records_timings(self):
        ev, jl = make_match_workload(120, 300, seed=5)
        tracer = Tracer()
        with tracer.activate(root=None):
            InterruptionMatcher().match(ev, jl, raw_events=ev)
        assert tracer.span_names() >= {
            "match.index",
            "match.join",
            "match.cases",
            "match.assemble",
        }
        table = render_timings(tracer.spans)
        assert "match.join" in table and "total" in table


class TestFilterStreamGenerator:
    def test_stream_shape(self):
        stream = make_stream(500, n_types=10, n_locations=16)
        assert len(stream) == 500


class TestParallelIngestionWorkload:
    def test_generator_is_valid_and_deterministic(self):
        from benchmarks.bench_perf_parallel_ingestion import make_ras_log

        a = make_ras_log(300, seed=7)
        b = make_ras_log(300, seed=7)
        assert len(a) == 300
        assert np.array_equal(a.frame["event_time"], b.frame["event_time"])
        # times are strictly ordered and recids unique: a round-trip
        # through the strict reader must accept every row
        assert (np.diff(a.frame["event_time"]) >= 0).all()
        assert len(np.unique(a.frame["recid"])) == 300

    def test_round_trips_clean_under_strict(self, tmp_path):
        from benchmarks.bench_perf_parallel_ingestion import make_ras_log
        from repro.logs import read_ras_log, write_ras_log

        path = tmp_path / "ras.log"
        write_ras_log(make_ras_log(200, seed=7), path)
        log = read_ras_log(path, policy="strict", workers=2)
        assert len(log) == 200
