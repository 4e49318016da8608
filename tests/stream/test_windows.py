"""The one time-window rule (``repro.logs.window``): covering edges,
trace cuts, log selection and the store's shards all agree that a
record landing exactly on a cut belongs to exactly one side of it."""

import numpy as np
import pytest

from repro.frame import Frame, concat
from repro.frame.npz import read_frame
from repro.logs.job import empty_job_log
from repro.logs.window import split_trace, window_edges
from repro.store import ShardedDataset

from tests.stream.conftest import make_jobs, make_ras


class TestCoverageEdges:
    def test_edge_count_and_span(self):
        edges = window_edges(0.0, 100.0, 4)
        assert len(edges) == 5
        assert edges[0] == 0.0
        assert edges[-1] > 100.0  # one ulp past the closed maximum

    def test_closed_maximum_falls_in_last_window(self):
        edges = window_edges(10.0, 20.0, 3)
        # half-open membership of the span maximum itself
        i = np.searchsorted(edges, 20.0, side="right") - 1
        assert i == 2
        assert edges[i] <= 20.0 < edges[i + 1]

    def test_degenerate_span(self):
        edges = window_edges(5.0, 5.0, 3)
        assert edges[-1] > 5.0
        assert (edges[:-1] == 5.0).all()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="at least one window"):
            window_edges(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="invalid span"):
            window_edges(1.0, 0.0, 2)


class TestSplitTrace:
    def test_partitions_exactly(self, trace):
        ras, job = trace
        incs = split_trace(ras, job, increments=7)
        assert sum(len(i.ras) for i in incs) == len(ras)
        assert sum(len(i.job) for i in incs) == len(job)
        back = concat([i.ras.frame for i in incs if len(i.ras)])
        assert np.array_equal(back["recid"], ras.frame["recid"])

    def test_event_pinned_on_every_cut(self, trace):
        """Cut edges placed exactly on event times: each pinned event
        appears once, in the increment its time *opens*."""
        ras, job = trace
        t = ras.frame["event_time"]
        pins = [float(t[200]), float(t[700]), float(t[1200])]
        edges = [float(t[0]), *pins, np.nextafter(float(t[-1]), np.inf)]
        incs = split_trace(ras, job, edges=edges)
        assert sum(len(i.ras) for i in incs) == len(ras)
        for k, pin in enumerate(pins):
            owner = [
                i.index
                for i in incs
                if np.any(i.ras.frame["event_time"] == pin)
            ]
            assert owner == [k + 1], f"pin {k} not owned by its opener"

    def test_watermark_is_exclusive(self, trace):
        ras, job = trace
        for inc in split_trace(ras, job, increments=5):
            if len(inc.ras):
                assert float(inc.ras.frame["event_time"].max()) < inc.watermark
            if len(inc.job):
                assert float(inc.job.frame["start_time"].max()) < inc.watermark

    def test_requires_exactly_one_cut_spec(self, trace):
        ras, job = trace
        with pytest.raises(ValueError, match="exactly one"):
            split_trace(ras, job)
        with pytest.raises(ValueError, match="exactly one"):
            split_trace(ras, job, increments=2, edges=[0.0, 1.0])


class TestLogSelectionHalfOpen:
    def test_ras_boundary_event_in_one_window(self, trace):
        ras, _ = trace
        cut = float(ras.frame["event_time"][500])
        t0, t1 = ras.time_span()
        left = ras.select_time(t0, cut)
        right = ras.select_time(cut, np.nextafter(t1, np.inf))
        assert len(left) + len(right) == len(ras)
        assert not np.any(left.frame["event_time"] == cut)
        assert np.any(right.frame["event_time"] == cut)

    def test_job_boundary_start_in_one_window(self, trace):
        _, job = trace
        starts = job.frame["start_time"]
        cut = float(starts[100])
        t0, t1 = float(starts.min()), float(starts.max())
        left = job.select_time(t0, cut)
        right = job.select_time(cut, np.nextafter(t1, np.inf))
        assert len(left) + len(right) == len(job)
        assert not np.any(left.frame["start_time"] == cut)
        assert np.any(right.frame["start_time"] == cut)


class TestStorePartitionerBoundary:
    def test_boundary_pinned_events_stored_once(self, tmp_path):
        """Events exactly on every interior partition edge — including
        the span maximum — survive the store round-trip exactly once."""
        ras = make_ras(200, seed=5)
        job = make_jobs(ras, 20, seed=6)
        t0, t1 = ras.time_span()
        windows = 4
        edges = window_edges(t0, t1, windows)
        # pin one event on each interior edge (and keep the max at t1)
        t = ras.frame["event_time"].copy()
        for k, e in enumerate(edges[1:-1]):
            t[50 * (k + 1)] = e
        ras = type(ras)(ras.frame.with_column("event_time", np.sort(t)))
        ds = ShardedDataset.create(tmp_path / "store")
        ds.add_machine_trace("bgp", ras, job, windows=windows)
        back = ds.load_ras("bgp").frame
        assert back.num_rows == len(ras)
        assert np.array_equal(
            back["event_time"].view(np.uint64),
            ras.frame["event_time"].view(np.uint64),
        )


def _pinned_pair():
    """A log pair with RAS events and job starts on every interior
    edge of a 4-window cut and on the span maximum."""
    ras = make_ras(400, seed=11)
    job = make_jobs(ras, 40, seed=12)
    t0, t1 = ras.time_span()
    interior = window_edges(t0, t1, 4)[1:-1]
    t = ras.frame["event_time"].copy()
    s = job.frame["start_time"].copy()
    for k, e in enumerate(interior):
        t[80 * (k + 1)] = e
        s[8 * (k + 1)] = e
    s[-1] = t1
    ras = type(ras)(ras.frame.with_column("event_time", np.sort(t)))
    job = type(job)(job.frame.with_column("start_time", np.sort(s)))
    return ras, job


def _zero_span_pair():
    """Every RAS event and job start at one instant (``t0 == t1``)."""
    ras = make_ras(30, seed=13)
    job = make_jobs(ras, 5, seed=14)
    t = np.full(len(ras), 1.2e9)
    ras = type(ras)(ras.frame.with_column("event_time", t))
    job = type(job)(job.frame.with_column("start_time", t[: len(job)]))
    return ras, job


def _empty_job_pair():
    return make_ras(200, seed=15), empty_job_log()


def _assert_bitwise_equal(got: Frame, want: Frame) -> None:
    assert got.columns == want.columns
    for col in want.columns:
        assert got[col].dtype == want[col].dtype, col
        if want[col].dtype == object:
            assert list(got[col]) == list(want[col]), col
        else:
            assert got[col].tobytes() == want[col].tobytes(), col


class TestStoreShardsAreSplitTrace:
    """The store writes exactly the windows ``split_trace`` cuts: each
    shard file decodes to the matching increment's frame, bit for bit."""

    @pytest.mark.parametrize("windows", [1, 4])
    @pytest.mark.parametrize(
        "pair", [_pinned_pair, _zero_span_pair, _empty_job_pair]
    )
    def test_shard_frames_equal_increments(self, tmp_path, pair, windows):
        ras, job = pair()
        ds = ShardedDataset.create(tmp_path / "store")
        ds.add_machine_trace("bgp", ras, job, windows=windows)
        incs = split_trace(ras, job, increments=windows)
        assert len(incs) == windows
        for table in ("ras", "job"):
            shards = ds.manifest.select(machine="bgp", table=table)
            assert [s.window for s in shards] == list(range(windows))
            for shard, inc in zip(shards, incs):
                got = read_frame(ds.root / shard.path, shard.columns)
                _assert_bitwise_equal(got, getattr(inc, table).frame)
            total = sum(len(getattr(inc, table)) for inc in incs)
            assert total == len(ras if table == "ras" else job)
