"""Performance: filtering throughput on synthetic record streams.

Not a paper artifact — engineering hygiene for the tool itself. Streams
are generated to stress each filter's hot path (dense same-location
storms for temporal, cross-location fan-out for spatial).
"""

import time

import numpy as np
import pytest

from repro.core.events import FatalEventTable
from repro.core.filtering import (
    CausalityFilter,
    FilterChain,
    SpatialFilter,
    TemporalFilter,
)
from repro.core.matching import InterruptionMatcher
from repro.frame import Frame
from repro.logs.job import JobLog
from repro.machine.partition import PartitionPool
from repro.obs import record_bench
from repro.perf import render_timings
from tests.core.filtering_reference import (
    ReferenceCausalityFilter,
    ReferenceSpatialFilter,
    ReferenceTemporalFilter,
)
from tests.core.matching_reference import ReferenceInterruptionMatcher


def make_stream(n: int, n_types: int, n_locations: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    types = np.array([f"T{i:02d}" for i in range(n_types)], dtype=object)
    locs = np.array(
        [f"R{r // 8}{r % 8}-M{m}" for r in range(40) for m in range(2)][
            :n_locations
        ],
        dtype=object,
    )
    times = np.sort(rng.uniform(0, 1e6, n))
    frame = Frame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "event_time": times,
            "errcode": types[rng.integers(0, n_types, n)],
            "component": np.array(["KERNEL"], dtype=object).repeat(n),
            "location": locs[rng.integers(0, n_locations, n)],
            "mp_lo": rng.integers(0, 80, n),
            "mp_hi": rng.integers(0, 80, n),
        }
    )
    return FatalEventTable(frame)


@pytest.fixture(scope="module")
def stream_50k():
    return make_stream(50_000, n_types=60, n_locations=80)


def test_perf_temporal_filter_50k(benchmark, stream_50k):
    out = benchmark(TemporalFilter(threshold=300.0).apply, stream_50k)
    assert 0 < len(out) <= len(stream_50k)


def test_perf_spatial_filter_50k(benchmark, stream_50k):
    out = benchmark(SpatialFilter(threshold=300.0).apply, stream_50k)
    assert 0 < len(out) <= len(stream_50k)


def test_perf_causal_filter_50k(benchmark, stream_50k):
    out = benchmark(CausalityFilter(window=120.0).apply, stream_50k)
    assert 0 < len(out) <= len(stream_50k)


# ----------------------------------------------------------------------
# the filter-chain speedup gate (ISSUE 2 acceptance)


@pytest.fixture(scope="module")
def filter_10x():
    """~10x the seed trace's raw FATAL volume (8,758 records at the
    default simulation scale 0.25)."""
    return make_stream(87_000, n_types=60, n_locations=80, seed=7)


def test_filter_speedup_10x(filter_10x):
    """The vectorized filter chain must beat the row-loop references
    >= 5x at 10x scale while producing identical output (ISSUE 2)."""
    ref_chain = FilterChain(
        temporal=ReferenceTemporalFilter(threshold=300.0),
        spatial=ReferenceSpatialFilter(threshold=300.0),
        causal=ReferenceCausalityFilter(window=120.0),
    )
    vec_chain = FilterChain()

    t0 = time.perf_counter()
    ref = ref_chain.apply(filter_10x)
    t_ref = time.perf_counter() - t0

    t0 = time.perf_counter()
    vec = vec_chain.apply(filter_10x)
    t_vec = time.perf_counter() - t0

    for col in ref.frame.columns:
        assert np.array_equal(ref.frame[col], vec.frame[col]), col
    assert ref_chain.stats == vec_chain.stats
    assert ref_chain.causal.rules == vec_chain.causal.rules

    print(f"\nreference: {t_ref:.3f}s  vectorized: {t_vec:.3f}s  "
          f"speedup: {t_ref / t_vec:.1f}x "
          f"({ref_chain.stats.raw} -> {ref_chain.stats.after_causal} events)")
    print(render_timings(vec_chain.timings, title="filter chain stage timings"))
    record_bench(
        "perf_filtering", "filter_speedup_10x", t_ref / t_vec,
        reference_s=t_ref, vectorized_s=t_vec,
    )
    assert t_ref / t_vec >= 5.0


def test_perf_fatal_extraction(benchmark, trace):
    """Location parsing dominates extraction; must stay linear."""
    from repro.core.events import fatal_event_table

    events = benchmark(fatal_event_table, trace.ras_log)
    assert len(events) > 0


# ----------------------------------------------------------------------
# the event-job matching kernel


def make_match_workload(
    n_events: int, n_jobs: int, seed: int = 0
) -> tuple[FatalEventTable, JobLog]:
    """A synthetic (fatal events, job log) pair shaped like the matcher's
    hot path.

    Jobs land on legal aligned partitions (1-16 midplanes). Half the
    events are anchored near job terminations so the interval join has
    real work; the rest are background noise across the machine, with a
    20% share of rack-level (two-midplane-span) locations.
    """
    rng = np.random.default_rng(seed)
    pool = PartitionPool()
    parts = [p for size in (1, 2, 4, 8, 16) for p in pool.candidates(size)]
    names = np.array([p.name for p in parts], dtype=object)
    p_start = np.array([p.start for p in parts], dtype=np.int64)
    p_size = np.array([p.size for p in parts], dtype=np.int64)

    horizon = 10 * 86400.0
    pick = rng.integers(0, len(parts), n_jobs)
    start = rng.uniform(0.0, horizon, n_jobs)
    end = start + rng.exponential(3000.0, n_jobs) + 1.0
    exes = np.array([f"/app{i:03d}" for i in range(200)], dtype=object)
    job_log = JobLog(
        Frame(
            {
                "job_id": np.arange(n_jobs, dtype=np.int64),
                "job_name": np.array(["j"], dtype=object).repeat(n_jobs),
                "executable": exes[rng.integers(0, len(exes), n_jobs)],
                "queued_time": start - 10.0,
                "start_time": start,
                "end_time": end,
                "location": names[pick],
                "user": np.array(["alice"], dtype=object).repeat(n_jobs),
                "project": np.array(["proj"], dtype=object).repeat(n_jobs),
                "size_midplanes": p_size[pick],
            }
        )
    )

    n_hit = n_events // 2
    victims = rng.integers(0, n_jobs, n_hit)
    t_hit = end[victims] + rng.normal(0.0, 45.0, n_hit)
    mp_hit = p_start[pick[victims]] + rng.integers(0, p_size[pick[victims]])
    t_bg = rng.uniform(0.0, horizon, n_events - n_hit)
    mp_bg = rng.integers(0, 80, n_events - n_hit)
    t = np.concatenate([t_hit, t_bg])
    mp = np.concatenate([mp_hit, mp_bg]).astype(np.int64)

    rack = mp // 2
    rack_names = np.array(
        [f"R{r // 8}{r % 8}" for r in range(40)], dtype=object
    )
    mp_names = np.array(
        [f"R{(i // 2) // 8}{(i // 2) % 8}-M{i % 2}" for i in range(80)],
        dtype=object,
    )
    is_rack = rng.random(n_events) < 0.2
    types = np.array([f"T{i:02d}" for i in range(40)], dtype=object)
    frame = Frame(
        {
            "event_id": np.arange(n_events, dtype=np.int64),
            "event_time": t,
            "errcode": types[rng.integers(0, len(types), n_events)],
            "component": np.array(["KERNEL"], dtype=object).repeat(n_events),
            "location": np.where(is_rack, rack_names[rack], mp_names[mp]),
            "mp_lo": np.where(is_rack, 2 * rack, mp),
            "mp_hi": np.where(is_rack, 2 * rack + 1, mp),
        }
    )
    return FatalEventTable(frame.sort_by("event_time", "event_id")), job_log


@pytest.fixture(scope="module")
def match_10x():
    """~10x the seed workload's post-filter volume."""
    return make_match_workload(5_000, 20_000, seed=7)


def test_perf_match_vectorized_10x(benchmark, match_10x):
    ev, jl = match_10x
    m = benchmark(
        InterruptionMatcher().match, ev, jl, raw_events=ev
    )
    assert m.pairs.num_rows > 0


def test_perf_match_vectorized_100x(benchmark):
    ev, jl = make_match_workload(50_000, 200_000, seed=7)
    m = benchmark(InterruptionMatcher().match, ev, jl, raw_events=ev)
    assert m.pairs.num_rows > 0


def test_match_speedup_10x(match_10x):
    """The vectorized kernel must beat the row-loop reference >= 5x at
    10x scale while producing identical results (ISSUE acceptance)."""
    ev, jl = match_10x

    t0 = time.perf_counter()
    ref = ReferenceInterruptionMatcher().match(ev, jl, raw_events=ev)
    t_ref = time.perf_counter() - t0

    t0 = time.perf_counter()
    vec = InterruptionMatcher().match(ev, jl, raw_events=ev)
    t_vec = time.perf_counter() - t0

    for col in ref.pairs.columns:
        assert np.array_equal(ref.pairs[col], vec.pairs[col]), col
    assert ref.event_cases == vec.event_cases

    print(f"\nreference: {t_ref:.3f}s  vectorized: {t_vec:.3f}s  "
          f"speedup: {t_ref / t_vec:.1f}x "
          f"({vec.pairs.num_rows} pairs)")
    print(render_timings(vec.timings, title="match kernel stage timings"))
    record_bench(
        "perf_filtering", "match_speedup_10x", t_ref / t_vec,
        reference_s=t_ref, vectorized_s=t_vec,
    )
    assert t_ref / t_vec >= 5.0
