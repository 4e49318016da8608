"""Checkpoint save/resume: bit-identical continuation, config
fingerprint enforcement, validation, and failure modes."""

import json

import numpy as np
import pytest

from repro.core.equivalence import diff_results
from repro.core.filtering.chain import FilterChain
from repro.core.filtering.temporal import TemporalFilter
from repro.core.pipeline import CoAnalysis
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
        _flip_last_byte(ckpt / "arrays.npz")
        problems = validate_checkpoint(ckpt)
        assert any(
            p.startswith("hash-mismatch") and "arrays.npz" in p
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
