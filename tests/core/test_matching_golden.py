"""Golden equivalence: the vectorized matching kernel must reproduce
the row-at-a-time reference bit for bit.

The reference (``tests/core/matching_reference.py``) is an independent
restatement of the §IV join semantics; these tests drive both matchers
over randomized synthetic workloads and a simulated Intrepid trace and
demand identical pairs, case labels, and type-case tables.
"""

import numpy as np
import pytest

from benchmarks.bench_perf_filtering import make_match_workload
from repro.core import InterruptionMatcher
from repro.core.events import fatal_event_table
from repro.core.filtering import FilterChain
from repro.simulate import CalibrationProfile, IntrepidSimulation
from tests.core.matching_reference import ReferenceInterruptionMatcher


def assert_match_results_equal(ref, vec):
    """Bit-identical MatchResults (timings excepted)."""
    assert ref.pairs.num_rows == vec.pairs.num_rows
    assert list(ref.pairs.columns) == list(vec.pairs.columns)
    for col in ref.pairs.columns:
        a, b = ref.pairs[col], vec.pairs[col]
        assert a.dtype == b.dtype, col
        assert np.array_equal(a, b), col
    assert ref.event_cases == vec.event_cases
    for col in ref.type_cases.columns:
        assert np.array_equal(ref.type_cases[col], vec.type_cases[col]), col
    for col in ref.interruptions.columns:
        assert np.array_equal(
            ref.interruptions[col], vec.interruptions[col]
        ), col


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("with_raw", [False, True])
def test_golden_on_synthetic_workloads(seed, with_raw):
    ev, jl = make_match_workload(300, 800, seed=seed)
    raw = ev if with_raw else None
    ref = ReferenceInterruptionMatcher().match(ev, jl, raw_events=raw)
    vec = InterruptionMatcher().match(ev, jl, raw_events=raw)
    assert ref.pairs.num_rows > 0  # the workload must exercise the join
    assert_match_results_equal(ref, vec)


@pytest.mark.parametrize("tolerance", [15.0, 60.0, 300.0])
def test_golden_across_tolerances(tolerance):
    ev, jl = make_match_workload(200, 500, seed=11)
    ref = ReferenceInterruptionMatcher(tolerance=tolerance).match(
        ev, jl, raw_events=ev
    )
    vec = InterruptionMatcher(tolerance=tolerance).match(
        ev, jl, raw_events=ev
    )
    assert_match_results_equal(ref, vec)


def test_golden_on_simulated_trace():
    """The pipeline's own matcher inputs: post-filter events plus the
    post-temporal raw table from a simulated Intrepid trace."""
    trace = IntrepidSimulation(
        CalibrationProfile(seed=2011, scale=0.05)
    ).run()
    filters = FilterChain()
    events = filters.apply(fatal_event_table(trace.ras_log))
    ref = ReferenceInterruptionMatcher().match(
        events, trace.job_log, raw_events=filters.temporal_table
    )
    vec = InterruptionMatcher().match(
        events, trace.job_log, raw_events=filters.temporal_table
    )
    assert ref.pairs.num_rows > 0
    assert_match_results_equal(ref, vec)
