"""The text readers build string columns of shared ``str`` objects.

Every string column a text reader returns holds one object per
distinct value — per file for the serial RAS reader, per chunk for the
pool, per call for the feed parsers — so a parsed log costs a pointer
per cell instead of a string per cell. The values themselves must not
change: they still equal the per-line oracle's.
"""

import gc
import tracemalloc
from collections import defaultdict

import pytest

from repro.cli import main
from repro.frame.io import read_delimited
from repro.logs.textio import read_job_log, read_ras_log, write_job_log, write_ras_log
from repro.obs import read_manifest
from repro.parallel.chunking import plan_chunks, scan_header
from repro.simulate import CalibrationProfile, IntrepidSimulation
from repro.stream.source import JobFeedParser, RasFeedParser

from tests.logs.ras_reference import LineRasFeedParser, iter_ras_chunks_by_line

#: a 3 MB RAS log: the serial reader's 1M-character batches split it
SEED, SCALE = 2011, 0.01
#: the most bytes a parsed row may keep alive: with shared strings a RAS
#: row keeps about 86 and a job row about 105, with one string per cell
#: about 580 and 380
MAX_RETAINED_BYTES_PER_ROW = 200


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("shared")
    sim = IntrepidSimulation(CalibrationProfile(seed=SEED, scale=SCALE)).run()
    write_ras_log(sim.ras_log, out / "ras.log")
    write_job_log(sim.job_log, out / "job.log")
    return out


def string_columns(frame):
    return [c for c in frame.columns if frame.col(c).dtype.kind == "O"]


def copies_per_value(col) -> dict[str, int]:
    """Distinct ``str`` objects behind each distinct value of *col*."""
    ids = defaultdict(set)
    for v in col:
        ids[v].add(id(v))
    return {v: len(objs) for v, objs in ids.items()}


def assert_one_object_per_value(frame, per_value: int = 1):
    cols = string_columns(frame)
    assert cols
    for name in cols:
        col = frame.col(name)
        most = max(copies_per_value(col).values())
        assert most <= per_value, (name, most)
    return cols


def assert_same_values(frame, expected):
    assert frame.columns == expected.columns
    for name in frame.columns:
        a, b = frame.col(name), expected.col(name)
        assert a.dtype == b.dtype, name
        if a.dtype.kind == "f":
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a.tolist() == b.tolist(), name


def _n_chunks(path, workers: int) -> int:
    _, data_start = scan_header(path)
    return len(plan_chunks(str(path), workers, data_start))


def _oracle_job(path):
    # the per-line validating loop of the delimited reader
    return read_delimited(path, policy="strict")


def _oracle_ras(path):
    from repro.frame import concat

    return concat([c.frame for c in iter_ras_chunks_by_line(path)])


class TestRasReaders:
    def test_serial_frame_has_one_object_per_value(self, trace):
        path = trace / "ras.log"
        assert path.stat().st_size > 2 * (1 << 20)  # several batches
        frame = read_ras_log(path, workers=1).frame
        cols = assert_one_object_per_value(frame)
        assert len(cols) == 8
        for name in cols:
            col = frame.col(name)
            assert len({id(v) for v in col}) == len(set(col)), name
        assert_same_values(frame, _oracle_ras(path))

    def test_two_workers_share_within_each_chunk(self, trace):
        path = trace / "ras.log"
        frame = read_ras_log(path, workers=2).frame
        assert_one_object_per_value(frame, per_value=_n_chunks(path, 2))
        assert_same_values(frame, _oracle_ras(path))

    def test_feed_parser_shares_within_a_call(self, trace):
        lines = (trace / "ras.log").read_text().splitlines()
        parsed = RasFeedParser(policy="strict").parse(lines).frame
        assert_one_object_per_value(parsed)
        oracle = LineRasFeedParser(policy="strict").parse(lines).frame
        assert_same_values(parsed, oracle)


class TestJobReaders:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_read_job_log(self, trace, workers):
        path = trace / "job.log"
        frame = read_job_log(path, workers=workers).frame
        per_value = 1 if workers == 1 else _n_chunks(path, workers)
        assert_one_object_per_value(frame, per_value=per_value)
        assert_same_values(frame, _oracle_job(path))

    def test_feed_parser_shares_within_a_call(self, trace):
        lines = (trace / "job.log").read_text().splitlines()
        parsed = JobFeedParser(policy="strict").parse(lines).frame
        assert_one_object_per_value(parsed)
        assert_same_values(parsed, _oracle_job(trace / "job.log"))


def retained_bytes_per_row(read, path) -> float:
    """Traced heap a parsed log keeps alive, per row."""
    read(path)  # imports and first-call caches stay out of the figure
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = read(path)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows = log.frame.num_rows
    assert rows > 500
    return (after - before) / rows


class TestRetainedMemory:
    def test_ras_log(self, trace):
        per_row = retained_bytes_per_row(read_ras_log, trace / "ras.log")
        assert per_row <= MAX_RETAINED_BYTES_PER_ROW, per_row

    def test_job_log(self, trace):
        per_row = retained_bytes_per_row(read_job_log, trace / "job.log")
        assert per_row <= MAX_RETAINED_BYTES_PER_ROW, per_row


def chunk_counters(path) -> dict[str, float]:
    return {
        m["name"]: m["value"]
        for m in read_manifest(path)["metrics"]
        if m["name"].startswith("ingest.chunk.") and m["kind"] == "counter"
    }


def test_serial_and_pool_count_the_same_lines_and_bytes(trace, tmp_path):
    totals = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.jsonl"
        rc = main([
            "analyze", "--ras", str(trace / "ras.log"),
            "--job", str(trace / "job.log"), "--workers", workers,
            "--no-cache", "--telemetry-out", str(out),
        ])
        assert rc == 0
        totals.append(chunk_counters(out))
    serial, pooled = totals
    assert set(serial) == {"ingest.chunk.records", "ingest.chunk.bytes"}
    assert serial == pooled
    data_lines = sum(
        len((trace / name).read_text().splitlines()) - 1
        for name in ("ras.log", "job.log")
    )
    data_bytes = sum(
        (trace / name).stat().st_size - scan_header(trace / name)[1]
        for name in ("ras.log", "job.log")
    )
    assert serial["ingest.chunk.records"] == data_lines
    assert serial["ingest.chunk.bytes"] == data_bytes
