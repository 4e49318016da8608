"""Property-based tests for the machine model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    ALLOWED_PARTITION_SIZES,
    Partition,
    PartitionPool,
    parse_location,
    parse_partition,
)
from repro.machine.location import Location

_POOL = PartitionPool()
partitions = st.sampled_from(
    [p for size in ALLOWED_PARTITION_SIZES for p in _POOL.candidates(size)]
)
midplane_indices = st.integers(min_value=0, max_value=79)


@given(midplane_indices)
def test_midplane_location_roundtrip(i):
    loc = Location.from_midplane_index(i)
    assert loc.midplane_index == i
    assert parse_location(str(loc)) == loc


@given(partitions)
def test_partition_name_roundtrip(p):
    assert parse_partition(p.name) == p


@given(partitions, midplane_indices)
def test_covers_iff_in_range(p, i):
    assert p.covers_midplane(i) == (p.start <= i < p.start + p.size)


@given(partitions, partitions)
def test_overlap_symmetric_and_consistent(a, b):
    assert a.overlaps(b) == b.overlaps(a)
    shared = set(a.midplane_indices) & set(b.midplane_indices)
    assert a.overlaps(b) == bool(shared)


@given(partitions)
def test_size_legal_and_indices_contiguous(p):
    assert p.size in ALLOWED_PARTITION_SIZES
    idx = list(p.midplane_indices)
    assert idx == list(range(idx[0], idx[0] + p.size))


@given(midplane_indices, st.integers(0, 15), st.integers(4, 35))
@settings(max_examples=200)
def test_node_location_parse_roundtrip(mp, nc, node):
    base = Location.from_midplane_index(mp)
    text = f"{base}-N{nc:02d}-J{node:02d}"
    loc = parse_location(text)
    assert str(loc) == text
    assert loc.midplane_index == mp


@given(partitions)
def test_pool_candidates_contain_partition(p):
    assert p in _POOL.candidates(p.size)
