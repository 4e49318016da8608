"""The atomic-write helper and the content hash in :mod:`repro.durable`,
plus the digests ``repro`` persists, pinned at their established values
so stores, checkpoints and parse-cache entries written earlier still
validate and hit."""

import hashlib
import os
import time

import numpy as np
import pytest

from repro.durable import atomic_write, content_hash
from repro.frame import Frame
from repro.logs.quarantine import IngestPolicy
from repro.obs import config_fingerprint
from repro.parallel.cache import ParseCache
from repro.frame.npz import write_frame

#: 1.15 MB: the file digest crosses the 1 MiB read block
DATA = bytes(range(256)) * 4500


class TestAtomicWrite:
    def test_replaces_dest(self, tmp_path):
        dest = tmp_path / "f.json"
        dest.write_bytes(b"old")
        atomic_write(dest, lambda fh: fh.write(b"new"))
        assert dest.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [dest]

    @pytest.mark.parametrize("exc", [OSError, KeyboardInterrupt])
    def test_failure_keeps_dest_and_removes_temp(self, tmp_path, exc):
        dest = tmp_path / "f.json"
        dest.write_bytes(b"old")

        def write(fh):
            fh.write(b"partial")
            fh.flush()
            raise exc("payload failed")

        with pytest.raises(exc):
            atomic_write(dest, write)
        assert dest.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [dest]

    def test_fsync_before_replace(self, tmp_path, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(os, name)

            def call(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(os, name, call)

        spy("fsync")
        spy("replace")
        atomic_write(tmp_path / "f", lambda fh: fh.write(b"x"))
        assert calls == ["fsync", "replace"]


class TestContentHash:
    def test_parts_in_order(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(DATA)
        expected = hashlib.blake2b(b"a" + DATA + b"b", digest_size=20)
        assert content_hash(b"a", path, b"b") == expected.hexdigest()
        assert content_hash(b"a", digest_size=12) == hashlib.blake2b(
            b"a", digest_size=12
        ).hexdigest()


class TestPinnedDigests:
    """Values computed by the code these digests were first written
    with; a change here invalidates every persisted store, checkpoint
    and cache entry."""

    def test_file(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(DATA)
        assert content_hash(path) == "60023be29975028f24db4e98308e60b735d83f24"

    @pytest.mark.skipif(
        np.lib.NumpyVersion(np.__version__) < "2.0.0",
        reason="the shard's object column is a pickle naming numpy._core",
    )
    def test_shard(self, tmp_path, monkeypatch):
        """A shard's digest is its frame file's; ``np.savez`` stamps zip
        members with the write time, so the clock is pinned."""
        gmtime = time.gmtime
        monkeypatch.setattr(time, "time", lambda: 1_300_000_000.0)
        monkeypatch.setattr(
            time, "localtime", lambda secs=None: gmtime(1_300_000_000.0)
        )
        frame = Frame(
            {
                "t": np.array([1.5, 2.5, -0.0]),
                "n": np.array([3, 1, 2], dtype=np.int64),
                "s": np.array(["b", "a", "b\x00"], dtype=object),
            }
        )
        write_frame(tmp_path / "w000.npz", frame)
        assert (
            content_hash(tmp_path / "w000.npz")
            == "cf9f257d75ad7eb9ba20d70dac4d911177d46e27"
        )

    def test_cache_key(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(DATA)
        policy = IngestPolicy(mode="quarantine", max_bad_fraction=0.25)
        key = ParseCache(tmp_path / "cache").key_for(path, "ras", policy)
        assert key == "95fd696413338daba768e1b46646b362aefb5ea6"

    def test_config_fingerprint(self):
        config = {"b": [1, 2.5], "a": "x", "c": {"z": None}}
        assert config_fingerprint(config) == "84ec8bf0b72a10007e6e3b36"
