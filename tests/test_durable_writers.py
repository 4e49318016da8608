"""Every file ``repro`` persists, checked writer by writer.

The writers are the frame file codec (the store's shards) and the
store manifest, the parse cache, the streaming checkpoint (its
``gaps.npz`` frame file and index), the daemon's ``CURRENT`` slot
pointer, the run manifest, the bench trajectory, the health snapshot
and the fault injector's log rotation.
For each one:

* a fault partway through the payload leaves the previous file
  byte-identical and the directory without a new entry;
* a new file gets the mode a plain ``open`` gives, ``0o666 & ~umask``;
* the bytes written for fixed inputs match pinned digests, so stores,
  checkpoints and cache entries written earlier still validate and hit.
"""

import hashlib
import os
import resource
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import benchmarks.trajectory
import repro.obs.manifest
from benchmarks.trajectory import record_bench
from repro.faults.io import FaultyFS
from repro.frame import Frame
from repro.logs.quarantine import DefectClass, QuarantineReport
from repro.obs import write_manifest
from repro.obs.health import write_health
from repro.parallel.cache import ParseCache
from repro.frame.npz import write_frame
from repro.store.manifest import ShardInfo, StoreManifest, write_store_manifest
from repro.stream import StreamingCoAnalysis, save_checkpoint, split_trace
from repro.stream.daemon import CheckpointRotator
from tests.stream.conftest import make_jobs, make_ras

FIXED_T = 1_300_000_000.0


def _frame() -> Frame:
    return Frame(
        {
            "t": np.array([1.5, 2.5, -0.0]),
            "n": np.array([3, 1, 2], dtype=np.int64),
            "s": np.array(["b", "a", "b\x00"], dtype=object),
        }
    )


def _report() -> QuarantineReport:
    report = QuarantineReport("ras.log")
    report.total_rows = 9
    report.record(4, DefectClass.TRUNCATED_LINE, "12|2008-01-0")
    report.note_clean_times(np.array([2.5, 1.5]))
    return report


@pytest.fixture(scope="module")
def runner():
    ras = make_ras(300)
    runner = StreamingCoAnalysis()
    runner.ingest_increment(split_trace(ras, make_jobs(ras, 40), 3)[0])
    return runner


@pytest.fixture
def frozen(monkeypatch):
    """Pin every clock and revision a writer stamps into its bytes
    (zip member times in ``.npz`` files included)."""
    gmtime = time.gmtime
    monkeypatch.setattr(time, "time", lambda: FIXED_T)
    monkeypatch.setattr(time, "localtime", lambda secs=None: gmtime(FIXED_T))
    monkeypatch.setattr(
        time, "strftime", lambda fmt, t=None: "2011-03-13T07:06:40+0000"
    )
    monkeypatch.setattr(repro.obs.manifest, "git_rev", lambda cwd=None: "r0")
    monkeypatch.setattr(benchmarks.trajectory, "git_rev", lambda cwd=None: "r0")


# -- the writers, each with fixed inputs --------------------------------


def _codec(root, runner):
    write_frame(root / "shard.npz", _frame())


def _store_manifest(root, runner):
    shard = ShardInfo(
        "m0", "ras", 0, "m0/ras/0", 3, 1.5, 2.5,
        [["t", "raw", "<f8"], ["s", "dict", "object"]], "ab" * 20,
    )
    write_store_manifest(root, StoreManifest(shards=[shard]))


def _cache(root, runner):
    ParseCache(root).store("entry", _frame(), _report())


def _checkpoint(root, runner, extra_state=None):
    save_checkpoint(runner, root / "ckpt", extra_state=extra_state)


def _pointer(root, runner):
    CheckpointRotator(root).save(runner)


def _run_manifest(root, runner):
    write_manifest(root / "run.jsonl", config={"b": [1, 2.5], "a": "x"})


def _bench(root, runner):
    record_bench("x", "wall_s", 1.25, directory=root, workers=2)


def _health(root, runner, snapshot=None):
    write_health(root / "health.json", snapshot or {"status": "healthy"})


def _rotate(root, runner):
    log = root / "ras.log"
    if not log.exists():
        log.write_bytes(b"1|2008-01-01-00.00.00.000000|x\n" * 40)
    FaultyFS._rotate(str(log))


WRITERS = {
    "store.codec": _codec,
    "store.manifest": _store_manifest,
    "parallel.cache": _cache,
    "stream.checkpoint": _checkpoint,
    "stream.daemon.pointer": _pointer,
    "obs.run_manifest": _run_manifest,
    "obs.record_bench": _bench,
    "obs.health": _health,
    "faults.rotate": _rotate,
}


def _snapshot(root: Path) -> dict[str, bytes | None]:
    """Every entry under *root*: file bytes, or None for a directory."""
    return {
        str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
        for p in sorted(root.rglob("*"))
    }


# -- byte pins ----------------------------------------------------------

#: blake2b-160 of each file the writers produce for the inputs above
PINS = {
    # the parse cache entry and the shard hold the same frame in the
    # same frame file format, so their .npz bytes agree
    "store.codec": {
        "shard.npz": "cf9f257d75ad7eb9ba20d70dac4d911177d46e27",
    },
    "store.manifest": {
        "manifest.json": "a78799958778cbfcbbb09fd81516a9b4755168c1",
    },
    "parallel.cache": {
        "entry.json": "370a39d2764a27c76fb7b354ba5e22ce0618d5f4",
        "entry.npz": "cf9f257d75ad7eb9ba20d70dac4d911177d46e27",
    },
    "stream.checkpoint": {
        "ckpt/gaps.npz": "a1fb6e3f437acaa208a77e5f0ef8ca22d9ea5e9c",
        "ckpt/checkpoint.json": "c61f7229e9c3b83893f7f7ca31c8c813a7c2615d",
    },
    "stream.daemon.pointer": {
        "CURRENT": "10c9d810d287c7b1812e305da80ea56efffa8806",
    },
    "obs.run_manifest": {
        "run.jsonl": "0739f4e538c921284c173ba5ca7ad880a1f7eb5b",
    },
    "obs.record_bench": {
        "BENCH_x.json": "2fb39eb60edd60b2a1330ae4b4c53074580ca5f5",
    },
    "obs.health": {
        "health.json": "d1079d4d66f7d5e7404985484a82c5fdca91026e",
    },
    "faults.rotate": {
        "ras.log": "50aae2bb71ee0e875a0fcff86b51fb481ac070b8",
    },
}


#: pinned files whose bytes hold a numpy pickle (an object column's
#: unique values, or the digest of one): the pickle names
#: ``numpy._core`` under numpy >= 2 and ``numpy.core`` before
PICKLED = {
    ("store.codec", "shard.npz"),
    ("parallel.cache", "entry.npz"),
    ("stream.checkpoint", "ckpt/checkpoint.json"),
}

NUMPY_2 = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


@pytest.mark.parametrize(
    "name,file_name",
    [
        pytest.param(
            name, file_name,
            marks=pytest.mark.skipif(
                (name, file_name) in PICKLED and not NUMPY_2,
                reason="pinned pickle bytes are numpy >= 2's",
            ),
        )
        for name in sorted(WRITERS)
        for file_name in sorted(PINS[name])
    ],
)
def test_output_bytes_pinned(name, file_name, tmp_path, runner, frozen):
    WRITERS[name](tmp_path, runner)
    data = (tmp_path / file_name).read_bytes()
    digest = hashlib.blake2b(data, digest_size=20).hexdigest()
    assert digest == PINS[name][file_name]


# -- file mode ----------------------------------------------------------


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_new_files_get_open_mode(name, umask, tmp_path, runner):
    previous = os.umask(umask)
    try:
        WRITERS[name](tmp_path, runner)
    finally:
        os.umask(previous)
    modes = {
        str(p.relative_to(tmp_path)): oct(p.stat().st_mode & 0o777)
        for p in tmp_path.rglob("*")
        if p.is_file()
    }
    assert modes and set(modes.values()) == {oct(0o666 & ~umask)}, modes


# -- failure injection --------------------------------------------------


@contextmanager
def _disk_full_after(limit: int):
    """Any write past *limit* bytes of a file fails with ``EFBIG``."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


def _fail_disk_full(writer):
    def fail(root, runner, monkeypatch):
        # 4 bytes: less than the smallest payload, the 7-byte pointer
        with _disk_full_after(4):
            writer(root, runner)

    return fail


def _fail_pointer(root, runner, monkeypatch):
    """Only the pointer flip fails: the slot checkpoint is not written."""
    monkeypatch.setattr(
        "repro.stream.daemon.save_checkpoint", lambda *a, **k: None
    )
    _fail_disk_full(_pointer)(root, runner, monkeypatch)


def _fail_checkpoint_frames(root, runner, monkeypatch):
    # 1 KiB: more than the smallest frame file (gaps.npz, 440 bytes), so
    # the disk fills partway through the first one written (survivors.npz)
    with _disk_full_after(1024):
        _checkpoint(root, runner)


def _fail_checkpoint_index(root, runner, monkeypatch):
    _checkpoint(root, runner, extra_state={"a": 1, "z": object()})


def _fail_health(root, runner, monkeypatch):
    _health(root, runner, {"status": "healthy", "z": object()})


#: failure case -> (the writer that first writes the previous file, the
#: failing write)
FAILURES = {
    "store.codec": ("store.codec", _fail_disk_full(_codec)),
    "store.manifest": ("store.manifest", _fail_disk_full(_store_manifest)),
    "parallel.cache": ("parallel.cache", _fail_disk_full(_cache)),
    "stream.checkpoint.arrays": ("stream.checkpoint", _fail_checkpoint_frames),
    "stream.checkpoint.index": ("stream.checkpoint", _fail_checkpoint_index),
    "stream.daemon.pointer": ("stream.daemon.pointer", _fail_pointer),
    "obs.run_manifest": ("obs.run_manifest", _fail_disk_full(_run_manifest)),
    "obs.record_bench": ("obs.record_bench", _fail_disk_full(_bench)),
    "obs.health": ("obs.health", _fail_health),
    "faults.rotate": ("faults.rotate", _fail_disk_full(_rotate)),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failed_write_keeps_previous_file(name, tmp_path, runner, monkeypatch):
    writer, fail = FAILURES[name]
    WRITERS[writer](tmp_path, runner)
    before = _snapshot(tmp_path)
    if name == "parallel.cache":  # a cache write error degrades to no cache
        fail(tmp_path, runner, monkeypatch)
    else:
        with pytest.raises((OSError, TypeError)):
            fail(tmp_path, runner, monkeypatch)
    assert _snapshot(tmp_path) == before
