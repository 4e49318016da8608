"""Checkpoint save/resume: bit-identical continuation, config
fingerprint enforcement, validation, and failure modes."""

import json

import numpy as np
import pytest

from repro.core.equivalence import diff_results
from repro.core.events import fatal_event_table
from repro.core.filtering.chain import FilterChain
from repro.core.filtering.spatial import SpatialFilter
from repro.core.filtering.temporal import TemporalFilter
from repro.core.pipeline import CoAnalysis
from repro.frame import Frame
from repro.logs.ras import RasLog
from repro.obs.metrics import get_metrics
from repro.stream import (
    StreamError,
    StreamingCoAnalysis,
    load_checkpoint,
    save_checkpoint,
    split_trace,
    validate_checkpoint,
)
from repro.stream.checkpoint import load_extras
from tests.frame.npz_reference import rewrite_npz
from tests.stream.conftest import make_jobs, valid_locations


def ingest_first(trace, k, upto):
    ras, job = trace
    runner = StreamingCoAnalysis()
    incs = split_trace(ras, job, increments=k)
    for inc in incs[:upto]:
        runner.ingest_increment(inc)
    return runner, incs


class TestSaveResume:
    def test_resume_is_bit_identical(self, trace, batch, tmp_path):
        runner, incs = ingest_first(trace, 6, 3)
        save_checkpoint(runner, tmp_path / "ckpt")
        resumed = load_checkpoint(tmp_path / "ckpt")
        assert resumed.watermark == runner.watermark
        assert resumed.increments == 3
        for inc in incs[3:]:
            resumed.ingest_increment(inc)
        assert diff_results(resumed.result(), batch) == []

    def test_resume_with_nothing_left(self, trace, batch, tmp_path):
        """All state needed for result() survives the round-trip."""
        runner, _ = ingest_first(trace, 4, 4)
        save_checkpoint(runner, tmp_path / "ckpt")
        resumed = load_checkpoint(tmp_path / "ckpt")
        assert diff_results(resumed.result(), batch) == []

    def test_checkpoint_every_increment(self, trace, batch, tmp_path):
        """Save+load between every pair of increments — the CLI's
        --checkpoint-dir cadence — still converges bit-identically."""
        ras, job = trace
        incs = split_trace(ras, job, increments=5)
        runner = StreamingCoAnalysis()
        for inc in incs:
            runner.ingest_increment(inc)
            save_checkpoint(runner, tmp_path / "ckpt")
            runner = load_checkpoint(tmp_path / "ckpt")
        assert diff_results(runner.result(), batch) == []

    def test_updates_continue_after_resume(self, trace, tmp_path):
        runner, incs = ingest_first(trace, 6, 3)
        direct = [runner.ingest_increment(inc) for inc in incs[3:]]

        fresh, _ = ingest_first(trace, 6, 3)
        save_checkpoint(fresh, tmp_path / "ckpt")
        resumed = load_checkpoint(tmp_path / "ckpt")
        replayed = [resumed.ingest_increment(inc) for inc in incs[3:]]
        for a, b in zip(direct, replayed):
            assert a.events_raw == b.events_raw
            assert a.events_flushed == b.events_flushed
            assert a.pairs_emitted == b.pairs_emitted
            assert a.interrupted_jobs == b.interrupted_jobs

    def test_flushed_counter_counts_each_event_once(self, trace, tmp_path):
        """``stream.events.flushed`` adds each update's new flushes: the
        fresh run's total is the matcher's count, and a resumed run
        counts only what it flushed after the checkpoint."""
        metrics = get_metrics()
        metrics.reset()
        runner, incs = ingest_first(trace, 6, 3)
        at_checkpoint = runner._matcher.events_flushed
        save_checkpoint(runner, tmp_path / "ckpt")
        last = [runner.ingest_increment(inc) for inc in incs[3:]][-1]
        assert metrics.value("stream.events.flushed") == last.events_flushed

        metrics.reset()
        resumed = load_checkpoint(tmp_path / "ckpt")
        for inc in incs[3:]:
            resumed.ingest_increment(inc)
        assert (
            metrics.value("stream.events.flushed")
            == last.events_flushed - at_checkpoint
        )
        metrics.reset()


def make_chain_trace(t0=1.2e9):
    """A temporal chain (``_T``, one location) and a spatial chain
    (``_S``, three locations), each three rows 200 s apart.

    The first row of each chain is kept, the middle one is dropped, and
    the third is dropped only because the dropped middle row extends the
    300 s window: the first row is 400 s back.
    """
    loc = valid_locations(4)
    times = [t0 + dt for k in range(3) for dt in (200.0 * k, 200.0 * k + 10)]
    n = len(times)
    ras = RasLog(
        Frame(
            {
                "recid": np.arange(1, n + 1, dtype=np.int64),
                "msg_id": np.array(["KERN_0001"] * n, dtype=object),
                "component": np.array(["KERNEL"] * n, dtype=object),
                "subcomponent": np.array(["sub"] * n, dtype=object),
                "errcode": np.array(["_T", "_S"] * 3, dtype=object),
                "severity": np.array(["FATAL"] * n, dtype=object),
                "event_time": np.array(times, dtype=np.float64),
                "location": np.array(
                    [loc[0], loc[1], loc[0], loc[2], loc[0], loc[3]],
                    dtype=object,
                ),
                "serialnumber": np.array(["SN0"] * n, dtype=object),
                "message": np.array(["m"] * n, dtype=object),
            }
        )
    )
    return ras, make_jobs(ras, 10, seed=3)


class TestChainCarry:
    def test_chains_span_three_increments_across_checkpoints(self, tmp_path):
        """Each chain's rows land in three increments, with a save and
        load between every pair: the carried last row of each group
        (kept or dropped) must reproduce the batch filters."""
        ras, job = make_chain_trace()
        t0 = float(ras.frame["event_time"][0])
        edges = [t0, t0 + 100.0, t0 + 300.0, t0 + 500.0]
        runner = StreamingCoAnalysis()
        for i, inc in enumerate(split_trace(ras, job, edges=edges)):
            if i:
                save_checkpoint(runner, tmp_path / f"ckpt{i}")
                runner = load_checkpoint(tmp_path / f"ckpt{i}")
            update = runner.ingest_increment(inc)
            prefix = fatal_event_table(
                RasLog(ras.frame.filter(ras.frame["event_time"] < inc.watermark))
            )
            temporal = TemporalFilter().apply(prefix)
            assert update.after_temporal == len(temporal)
            assert update.after_spatial == len(SpatialFilter().apply(temporal))
        assert (update.after_temporal, update.after_spatial) == (4, 2)
        assert diff_results(runner.result(), CoAnalysis().run(ras, job)) == []

    def test_carry_holds_only_the_open_window(self, trace, batch):
        """Over a 10-increment replay each carry keeps only rows within
        the threshold of the chunk it was last applied to, not a row for
        every group seen, and every update still matches the batch
        filters over its prefix."""
        ras, job = trace
        runner = StreamingCoAnalysis()
        states = (runner._temporal, runner._spatial)
        watermark = float("-inf")
        for inc in split_trace(ras, job, increments=10):
            update = runner.ingest_increment(inc)
            prefix = fatal_event_table(
                RasLog(ras.frame.filter(ras.frame["event_time"] < inc.watermark))
            )
            temporal = TemporalFilter().apply(prefix)
            assert update.after_temporal == len(temporal)
            assert update.after_spatial == len(SpatialFilter().apply(temporal))
            for state in states:
                # rows of this increment, or within the threshold before
                # its first row, which the previous watermark bounds
                oldest = watermark - state.filter.threshold
                assert (state.carry["event_time"] >= oldest).all()
            watermark = inc.watermark
        groups = np.unique(runner._temporal.filter.group_codes(prefix.frame))
        assert 0 < runner._temporal.carry.num_rows < len(groups) // 2
        assert diff_results(runner.result(), batch) == []


def _bump_version(directory):
    path = directory / "checkpoint.json"
    index = json.loads(path.read_text())
    index["version"] = 99
    path.write_text(json.dumps(index))


def _flip_last_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestValidateCheckpoint:
    """Offline integrity audit: every corruption maps to a class."""

    @pytest.fixture()
    def ckpt(self, trace, tmp_path):
        runner, _ = ingest_first(trace, 4, 2)
        directory = tmp_path / "ckpt"
        save_checkpoint(runner, directory)
        return directory

    def test_healthy_checkpoint_is_clean(self, ckpt):
        assert validate_checkpoint(ckpt) == []

    def test_bit_flip_in_frame_shard_is_hash_mismatch(self, ckpt):
        _flip_last_byte(ckpt / "survivors.npz")
        problems = validate_checkpoint(ckpt)
        assert problems
        assert all(p.startswith("hash-mismatch") for p in problems)
        assert "survivors" in problems[0]

    def test_bit_flip_in_arrays_is_hash_mismatch(self, ckpt):
        _flip_last_byte(ckpt / "gaps.npz")
        problems = validate_checkpoint(ckpt)
        assert any(
            p.startswith("hash-mismatch") and "gaps.npz" in p
            for p in problems
        )

    def test_deleted_frame_dir_is_missing_file(self, ckpt):
        (ckpt / "jobs_all.npz").unlink()
        problems = validate_checkpoint(ckpt)
        assert any(p.startswith("missing-file") for p in problems)

    def test_garbled_index_is_unreadable(self, ckpt):
        (ckpt / "checkpoint.json").write_text("{not json")
        problems = validate_checkpoint(ckpt)
        assert problems[0].startswith("unreadable-index")

    def test_wrong_version_is_version_mismatch(self, ckpt):
        path = ckpt / "checkpoint.json"
        index = json.loads(path.read_text())
        index["version"] = 99
        path.write_text(json.dumps(index))
        problems = validate_checkpoint(ckpt)
        assert problems[0].startswith("version-mismatch")

    def test_tampered_config_is_fingerprint_mismatch(self, ckpt):
        path = ckpt / "checkpoint.json"
        index = json.loads(path.read_text())
        index["config"]["tolerance"] = 999.0
        path.write_text(json.dumps(index))
        problems = validate_checkpoint(ckpt)
        assert any(p.startswith("fingerprint-mismatch") for p in problems)

    def test_without_hash_verification_bit_flip_passes(self, ckpt):
        """verify_hashes=False is the cheap structural-only audit."""
        _flip_last_byte(ckpt / "survivors.npz")
        assert validate_checkpoint(ckpt, verify_hashes=False) == []


class TestFailureModes:
    def test_finalized_stream_refuses_checkpoint(self, trace, tmp_path):
        runner, _ = ingest_first(trace, 2, 2)
        runner.result()
        with pytest.raises(StreamError, match="finalized"):
            save_checkpoint(runner, tmp_path / "ckpt")

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(StreamError, match="unreadable"):
            load_checkpoint(tmp_path / "nope")

    def test_wrong_version_raises(self, trace, tmp_path):
        runner, _ = ingest_first(trace, 3, 1)
        save_checkpoint(runner, tmp_path / "ckpt")
        _bump_version(tmp_path / "ckpt")
        with pytest.raises(StreamError, match="version"):
            load_checkpoint(tmp_path / "ckpt")

    def test_load_extras_checks_the_version(self, trace, tmp_path):
        runner, _ = ingest_first(trace, 3, 1)
        save_checkpoint(runner, tmp_path / "ckpt", extra_state={"k": 1})
        _bump_version(tmp_path / "ckpt")
        with pytest.raises(StreamError, match="version"):
            load_extras(tmp_path / "ckpt")

    @pytest.mark.parametrize("extra", [False, True])
    def test_out_of_range_codes_raise_naming_the_frame(
        self, trace, tmp_path, extra
    ):
        """numpy reads ``values[-1]`` as the last value: a code of -1
        must fail the load, not decode to the wrong strings."""
        runner, _ = ingest_first(trace, 3, 2)
        ckpt = tmp_path / "ckpt"
        survivors = runner._survivors[0]
        save_checkpoint(runner, ckpt, extra_frames={"late": survivors})
        name = "x_late.npz" if extra else "survivors.npz"
        j = survivors.columns.index("location")
        with rewrite_npz(ckpt / name) as arrays:
            arrays[f"{j}.codes"][0] = -1
        load = load_extras if extra else load_checkpoint
        with pytest.raises(StreamError, match=name):
            load(ckpt)

    def test_threshold_mismatch_raises(self, trace, tmp_path):
        runner, _ = ingest_first(trace, 3, 1)
        save_checkpoint(runner, tmp_path / "ckpt")
        other = CoAnalysis(
            filters=FilterChain(temporal=TemporalFilter(threshold=60.0))
        )
        with pytest.raises(StreamError, match="thresholds do not match"):
            load_checkpoint(tmp_path / "ckpt", pipeline=other)
