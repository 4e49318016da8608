"""Performance: the columnar-frame substrate under log-analysis load."""

import numpy as np
import pytest

from repro.frame import Frame
from repro.frame.io import write_delimited


@pytest.fixture(scope="module")
def big_frame():
    rng = np.random.default_rng(1)
    n = 500_000
    users = np.array([f"u{i:03d}" for i in range(236)], dtype=object)
    return Frame(
        {
            "job_id": np.arange(n, dtype=np.int64),
            "user": users[rng.integers(0, 236, n)],
            "size": rng.choice([1, 2, 4, 8, 16, 32, 64], n),
            "runtime": rng.exponential(3000.0, n),
        }
    )


def test_perf_sort_500k(benchmark, big_frame):
    out = benchmark(big_frame.sort_by, "user", "runtime")
    assert out.num_rows == big_frame.num_rows


def test_perf_filter_500k(benchmark, big_frame):
    out = benchmark(lambda f: f.filter(f["size"] >= 16), big_frame)
    assert 0 < out.num_rows < big_frame.num_rows


def test_perf_write_delimited_500k(benchmark, big_frame, tmp_path):
    """Batched column-join writer; was a per-row format loop."""
    path = tmp_path / "big.txt"
    benchmark(write_delimited, big_frame, path)
    assert path.stat().st_size > 0
