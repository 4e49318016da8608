"""Unit tests for the published workload tables."""

import numpy as np
import pytest

from repro.workload.tables import (
    RUNTIME_BUCKETS,
    SIZE_CLASSES,
    TABLE_VI_INTERRUPTED,
    TABLE_VI_TOTALS,
    runtime_bucket_index,
    sample_cell_runtime,
)


class TestTableTranscription:
    def test_totals_sum_near_paper(self):
        """Table VI's bottom-right cell prints 68,692; the published
        cells actually sum to 68,632 (the 8-midplane row's printed
        margin 2,618 disagrees with its own cells, which sum to 2,558).
        We transcribe the cells and live with the paper's arithmetic."""
        assert TABLE_VI_TOTALS.sum() == 68632
        assert abs(TABLE_VI_TOTALS.sum() - 68692) <= 60

    def test_interrupted_sum_matches_paper(self):
        """206 category-1 interruptions."""
        assert TABLE_VI_INTERRUPTED.sum() == 206

    def test_row_sums_match_published_cells(self):
        margins = TABLE_VI_TOTALS.sum(axis=1)
        assert list(margins) == [46413, 11911, 4822, 2558, 1854, 656, 4, 341, 73]

    def test_column_sums_match_published_cells(self):
        margins = TABLE_VI_TOTALS.sum(axis=0)
        assert list(margins) == [15254, 12593, 25884, 14901]

    def test_shape(self):
        assert TABLE_VI_TOTALS.shape == (len(SIZE_CLASSES), len(RUNTIME_BUCKETS))


class TestBuckets:
    @pytest.mark.parametrize(
        "rt,idx",
        [(5.0, 0), (10.0, 0), (399.9, 0), (400.0, 1), (1599.0, 1),
         (1600.0, 2), (6399.0, 2), (6400.0, 3), (1e6, 3)],
    )
    def test_bucket_index(self, rt, idx):
        assert runtime_bucket_index(rt) == idx

    def test_array_matches_scalar_loop(self):
        """One searchsorted over an array gives the per-row loop's
        indices: at and around every edge, below 10 s, past the last
        edge, at the infinities and for NaN."""
        from tests.core.jobindex_reference import runtime_bucket_index_by_loop

        edges = [edge for bucket in RUNTIME_BUCKETS for edge in bucket]
        values = [-1.0, 0.0, 5.0, 9.999, 1e300, np.inf, -np.inf, np.nan]
        for edge in edges:
            values += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
        runtimes = np.array(values)
        want = [runtime_bucket_index_by_loop(float(r)) for r in runtimes]
        got = runtime_bucket_index(runtimes)
        assert got.dtype == np.int64
        assert got.tolist() == want
        scalars = [runtime_bucket_index(float(r)) for r in runtimes]
        assert scalars == want
        assert all(type(i) is int for i in scalars)
        assert runtime_bucket_index(np.nan) == len(RUNTIME_BUCKETS) - 1
        assert runtime_bucket_index(np.zeros(0)).dtype == np.int64

    def test_sampled_runtimes_stay_in_bucket(self):
        rng = np.random.default_rng(1)
        for bucket, (lo, hi) in enumerate(RUNTIME_BUCKETS):
            for _ in range(200):
                rt = sample_cell_runtime(bucket, rng)
                assert lo <= rt < hi

    def test_long_bucket_mean_capped(self):
        """The open-ended bucket must not blow up aggregate demand."""
        rng = np.random.default_rng(2)
        rts = [sample_cell_runtime(3, rng) for _ in range(3000)]
        assert 10000 < np.mean(rts) < 25000
