"""Golden equivalence: the columnar filter kernels must reproduce the
row-at-a-time references bit for bit.

The references (``tests/core/filtering_reference.py``) are independent
statements of the chain-collapse and causality-mining semantics; these
tests drive both implementations over randomized synthetic streams
(several seeds × thresholds) and a simulated Intrepid trace, demanding
identical surviving frames, chain stats, and mined rules.
"""

import numpy as np
import pytest

from benchmarks.bench_perf_filtering import make_stream
from repro.core.events import fatal_event_table
from repro.core.filtering import (
    CausalityFilter,
    FilterChain,
    SpatialFilter,
    TemporalFilter,
)
from repro.simulate import CalibrationProfile, IntrepidSimulation
from tests.core.filtering_reference import (
    ReferenceCausalityFilter,
    ReferenceSpatialFilter,
    ReferenceTemporalFilter,
)


def assert_tables_equal(ref, vec):
    """Bit-identical FatalEventTables: columns, dtypes, values."""
    assert list(ref.frame.columns) == list(vec.frame.columns)
    for col in ref.frame.columns:
        a, b = ref.frame[col], vec.frame[col]
        assert a.dtype == b.dtype, col
        assert np.array_equal(a, b), col


def reference_chain(temporal, spatial, window):
    return FilterChain(
        temporal=ReferenceTemporalFilter(threshold=temporal),
        spatial=ReferenceSpatialFilter(threshold=spatial),
        causal=ReferenceCausalityFilter(window=window),
    )


def vectorized_chain(temporal, spatial, window):
    return FilterChain(
        temporal=TemporalFilter(threshold=temporal),
        spatial=SpatialFilter(threshold=spatial),
        causal=CausalityFilter(window=window),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("temporal,spatial,window", [
    (120.0, 120.0, 60.0),
    (300.0, 300.0, 120.0),
])
def test_golden_each_filter_on_synthetic_streams(seed, temporal, spatial, window):
    # few types/locations so chains, fan-out, and causal windows overlap
    events = make_stream(3000, n_types=8, n_locations=12, seed=seed)

    ref_t = ReferenceTemporalFilter(threshold=temporal).apply(events)
    vec_t = TemporalFilter(threshold=temporal).apply(events)
    assert 0 < len(vec_t) < len(events)  # the stream must exercise drops
    assert_tables_equal(ref_t, vec_t)

    ref_s = ReferenceSpatialFilter(threshold=spatial).apply(ref_t)
    vec_s = SpatialFilter(threshold=spatial).apply(vec_t)
    assert len(vec_s) < len(vec_t)
    assert_tables_equal(ref_s, vec_s)

    ref_c = ReferenceCausalityFilter(window=window)
    vec_c = CausalityFilter(window=window)
    assert_tables_equal(ref_c.apply(ref_s), vec_c.apply(vec_s))
    assert ref_c.rules == vec_c.rules


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("temporal,spatial,window", [
    (60.0, 30.0, 240.0),
    (600.0, 300.0, 120.0),
])
def test_golden_chain_on_synthetic_streams(seed, temporal, spatial, window):
    events = make_stream(2500, n_types=6, n_locations=10, seed=seed)
    ref_chain = reference_chain(temporal, spatial, window)
    vec_chain = vectorized_chain(temporal, spatial, window)
    assert_tables_equal(ref_chain.apply(events), vec_chain.apply(events))
    assert ref_chain.stats == vec_chain.stats
    assert ref_chain.causal.rules == vec_chain.causal.rules
    assert_tables_equal(ref_chain.temporal_table, vec_chain.temporal_table)


def test_golden_causal_rules_mined_somewhere():
    """At least one synthetic configuration must mine non-trivial rules,
    or the rule-equality assertions above prove nothing."""
    rng_hit = False
    for seed in range(6):
        events = make_stream(3000, n_types=4, n_locations=6, seed=seed)
        f = CausalityFilter(window=600.0, min_support=3, min_confidence=0.2)
        f.apply(events)
        ref = ReferenceCausalityFilter(
            window=600.0, min_support=3, min_confidence=0.2
        )
        ref.apply(events)
        assert ref.rules == f.rules
        rng_hit = rng_hit or bool(f.rules)
    assert rng_hit


def test_golden_on_simulated_trace():
    """The pipeline's own filter inputs: the raw FATAL table of a
    simulated Intrepid trace."""
    trace = IntrepidSimulation(
        CalibrationProfile(seed=2011, scale=0.05)
    ).run()
    events = fatal_event_table(trace.ras_log)
    assert len(events) > 0
    ref_chain = reference_chain(300.0, 300.0, 120.0)
    vec_chain = FilterChain()
    assert_tables_equal(ref_chain.apply(events), vec_chain.apply(events))
    assert ref_chain.stats == vec_chain.stats
    assert ref_chain.causal.rules == vec_chain.causal.rules
    assert_tables_equal(ref_chain.temporal_table, vec_chain.temporal_table)
