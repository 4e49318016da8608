"""The frame file format: every layer that persists a frame — the fleet
store, streaming checkpoints, the parse cache — gives back the frame it
was handed, bit for bit, and the parse cache stores the same arrays an
``np.unique`` encoder would."""

import io
import zipfile

import numpy as np
import pytest

from repro.frame import Frame
from repro.frame.npz import FrameFileError, read_frame, write_frame
from repro.logs.ras import RasLog
from repro.parallel.cache import ParseCache
from repro.store import ShardedDataset
from repro.stream import StreamingCoAnalysis, save_checkpoint, split_trace
from repro.stream.checkpoint import load_extras
from tests.frame.npz_reference import reference_arrays, rewrite_npz
from tests.stream.conftest import make_jobs, make_ras

NEG_NAN = np.copysign(np.nan, -1.0)

FRAMES = {
    "zero-rows": Frame(
        {
            "s": np.array([], dtype=object),
            "f": np.array([], dtype=np.float64),
            "i": np.array([], dtype=np.int32),
        }
    ),
    "empty-strings": Frame(
        {"s": np.array(["", "a", "", ""], dtype=object)}
    ),
    "trailing-nul": Frame(
        {"s": np.array(["a\x00", "a", "\x00", "a\x00\x00"], dtype=object)}
    ),
    "non-ascii": Frame(
        {"s": np.array(["né", "日本語", "Ω≈ç", "né"], dtype=object)}
    ),
    "signed-zero-and-nan": Frame(
        {"f": np.array([-0.0, 0.0, NEG_NAN, np.nan])}
    ),
    "numeric-dtypes": Frame(
        {
            "b": np.array([True, False, False, True]),
            "i32": np.array([-1, 0, 2**31 - 1, -(2**31)], dtype=np.int32),
            "i64": np.array([-1, 0, 2**62, -(2**63)], dtype=np.int64),
            "f32": np.array([-0.0, 1.5, np.inf, NEG_NAN], dtype=np.float32),
        }
    ),
}


def assert_bit_identical(got: Frame, want: Frame):
    assert got.columns == want.columns
    for name in want.columns:
        a, b = got[name], want[name]
        assert a.dtype == b.dtype, name
        if b.dtype == object:
            assert [type(v) for v in a] == [type(v) for v in b], name
            assert a.tolist() == b.tolist(), name
        else:
            assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def runner():
    ras = make_ras(300)
    runner = StreamingCoAnalysis()
    runner.ingest_increment(split_trace(ras, make_jobs(ras, 40), 3)[0])
    return runner


def _through_store(frame, tmp_path, runner):
    """Ride as extra columns of a machine's RAS log, over two shards."""
    base = make_ras(frame.num_rows).frame
    ras = Frame(
        {
            **{c: base[c] for c in base.columns},
            **{f"p.{c}": frame[c] for c in frame.columns},
        }
    )
    ds = ShardedDataset.create(tmp_path / "store")
    ds.add_machine_trace("m", RasLog(ras), make_jobs(make_ras(3), 0), 2)
    out = ShardedDataset.open(ds.root).scan("m", "ras")
    return Frame({c: out[f"p.{c}"] for c in frame.columns})


def _through_checkpoint(frame, tmp_path, runner):
    save_checkpoint(runner, tmp_path / "ckpt", extra_frames={"probe": frame})
    return load_extras(tmp_path / "ckpt")[1]["probe"]


def _through_cache(frame, tmp_path, runner):
    cache = ParseCache(tmp_path / "cache")
    cache.store("entry", frame, None)
    loaded = cache.load("entry")
    assert cache.last_status == "hit"
    return loaded[0]


LAYERS = {
    "store": _through_store,
    "checkpoint": _through_checkpoint,
    "parse-cache": _through_cache,
}


@pytest.mark.parametrize("layer", sorted(LAYERS))
@pytest.mark.parametrize("frame_name", list(FRAMES))
def test_round_trip_is_bit_identical(frame_name, layer, tmp_path, runner):
    frame = FRAMES[frame_name]
    assert_bit_identical(LAYERS[layer](frame, tmp_path, runner), frame)


def test_parse_cache_stores_the_np_unique_arrays(tmp_path):
    """Each array in the cache's ``.npz`` has the bytes the ``np.unique``
    reference encoder gives. Members, not the whole file: ``np.savez``
    stamps each member with its write time."""
    frame = Frame(
        {
            "t": np.array([1.5, 2.5, -0.0, 2.5]),
            "s": np.array(["b", "a", "b\x00", "é"], dtype=object),
            "n": np.array([3, 1, 2, 3], dtype=np.int64),
            "e": np.array(["", "", "x", ""], dtype=object),
        }
    )
    cache = ParseCache(tmp_path)
    cache.store("entry", frame, None)
    want = reference_arrays(frame)
    with zipfile.ZipFile(cache._paths("entry")[0]) as zf:
        assert sorted(zf.namelist()) == sorted(f"{k}.npy" for k in want)
        for key, array in want.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, array, allow_pickle=True)
            assert zf.read(f"{key}.npy") == buf.getvalue(), key


class TestReadChecks:
    """``read_frame`` raises one error type for every structural defect."""

    FRAME = Frame(
        {
            "t": np.array([1.0, 2.0, 3.0]),
            "s": np.array(["x", "y", "x"], dtype=object),
        }
    )

    @pytest.fixture()
    def written(self, tmp_path):
        path = tmp_path / "f.npz"
        return path, write_frame(path, self.FRAME)

    @pytest.mark.parametrize("code", [-1, 2])
    def test_codes_outside_the_dictionary(self, written, code):
        path, spec = written
        with rewrite_npz(path) as arrays:
            arrays["1.codes"][0] = code
        with pytest.raises(FrameFileError, match="out of range"):
            read_frame(path, spec)

    def test_ragged_columns(self, written):
        path, spec = written
        with rewrite_npz(path) as arrays:
            arrays["0.raw"] = arrays["0.raw"][:2]
        with pytest.raises(FrameFileError, match="length"):
            read_frame(path, spec)

    def test_not_one_dimensional(self, written):
        path, spec = written
        with rewrite_npz(path) as arrays:
            arrays["0.raw"] = arrays["0.raw"].reshape(3, 1)
        with pytest.raises(FrameFileError, match="1-D"):
            read_frame(path, spec)

    def test_raw_dtype_differs_from_spec(self, written):
        path, spec = written
        with rewrite_npz(path) as arrays:
            arrays["0.raw"] = arrays["0.raw"].astype(np.float32)
        with pytest.raises(FrameFileError, match="dtype"):
            read_frame(path, spec)

    @pytest.mark.parametrize("cut", [0.5, 0.0])
    def test_torn_file(self, written, cut):
        path, spec = written
        payload = path.read_bytes()
        path.write_bytes(payload[: int(len(payload) * cut)])
        with pytest.raises(FrameFileError, match="unreadable"):
            read_frame(path, spec)

    def test_missing_file(self, written):
        path, spec = written
        path.unlink()
        with pytest.raises(FrameFileError, match="unreadable"):
            read_frame(path, spec)
