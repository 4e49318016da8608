"""Unit tests for the partition model."""

import pytest

from repro.machine import (
    ALLOWED_PARTITION_SIZES,
    Partition,
    PartitionPool,
    parse_partition,
)


class TestConstruction:
    def test_single_midplane_anywhere(self):
        assert Partition(37, 1).size == 1

    def test_rack_alignment_enforced(self):
        with pytest.raises(ValueError, match="rack boundary"):
            Partition(1, 2)

    def test_power_of_two_alignment(self):
        Partition(0, 4)
        Partition(4, 4)
        with pytest.raises(ValueError, match="align"):
            Partition(2, 4)

    def test_row_alignment_for_48(self):
        Partition(0, 48)
        Partition(16, 48)
        with pytest.raises(ValueError):
            Partition(8, 48)

    def test_whole_machine(self):
        p = Partition(0, 80)
        assert len(p.midplane_indices) == 80

    def test_illegal_size_rejected(self):
        with pytest.raises(ValueError, match="not in"):
            Partition(0, 3)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            Partition(78, 4)


class TestNaming:
    @pytest.mark.parametrize(
        "start,size,name",
        [
            (0, 1, "R00-M0"),
            (1, 1, "R00-M1"),
            (16, 2, "R10"),
            (16, 4, "R10-R11"),
            (0, 16, "R00-R07"),
            (0, 80, "R00-R47"),
            (32, 32, "R20-R37"),
        ],
    )
    def test_names(self, start, size, name):
        assert Partition(start, size).name == name

    @pytest.mark.parametrize(
        "start,size",
        [(0, 1), (17, 1), (16, 2), (16, 4), (0, 16), (0, 48), (0, 80)],
    )
    def test_parse_roundtrip(self, start, size):
        p = Partition(start, size)
        assert parse_partition(p.name) == p

    def test_parse_table3_example(self):
        """Table III shows LOCATION R10-R11."""
        p = parse_partition("R10-R11")
        assert p.size == 4
        assert list(p.midplane_indices) == [16, 17, 18, 19]

    def test_parse_rejects_submidplane(self):
        with pytest.raises(ValueError):
            parse_partition("R00-M0-N01")


class TestGeometry:
    def test_overlaps(self):
        a = parse_partition("R10-R11")
        b = parse_partition("R11")
        c = parse_partition("R12-R13")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_overlap_is_reflexive(self):
        p = Partition(0, 2)
        assert p.overlaps(p)


class TestPool:
    @pytest.fixture(scope="class")
    def pool(self):
        return PartitionPool()

    def test_candidate_counts(self, pool):
        assert len(pool.candidates(1)) == 80
        assert len(pool.candidates(2)) == 40
        assert len(pool.candidates(4)) == 20
        assert len(pool.candidates(16)) == 5
        assert len(pool.candidates(32)) == 2
        assert len(pool.candidates(48)) == 3
        assert len(pool.candidates(64)) == 1
        assert len(pool.candidates(80)) == 1

    def test_all_candidates_valid_by_construction(self, pool):
        for size in ALLOWED_PARTITION_SIZES:
            for p in pool.candidates(size):
                assert p.size == size

    def test_bad_size_raises(self, pool):
        with pytest.raises(ValueError, match="not schedulable"):
            pool.candidates(3)

    def test_fit_size(self, pool):
        assert pool.fit_size(1) == 1
        assert pool.fit_size(3) == 4
        assert pool.fit_size(33) == 48
        assert pool.fit_size(80) == 80
        with pytest.raises(ValueError):
            pool.fit_size(81)
