"""The FATAL-only chunk read against the per-line reference, and its
workers' cost.

``parallel_read_ras_frame(..., fatal_only=True)`` projects in each
chunk's parse: it checks every line of its byte range but builds cells
only for its FATAL candidates, and the merge reads the sample of a
candidate it rejects back from the file. Whatever the chunk placement,
worker count and policy, it must give the FATAL rows of the per-line
reference read: the same frame bytes, the same rendered quarantine
report with its samples, or the same raise. The hand-built logs place
rejected lines where the reader could go wrong — on a chunk seam, on a
chunk's internal batch seam, and in a chunk after the row that rejects
them.

A first pass keeps only the FATAL candidates while every candidate
follows the one before it; a log that breaks that order is parsed a
second time for the cross-record replay. ``TestSecondPass`` holds both
passes to one result, and ``TestReadMemory`` holds the first pass's
memory to one batch, however long the log.
"""

import gc
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.logs import IngestAbortError, IngestError, IngestPolicy
from repro.logs.stream import _BATCH_CHARS
from repro.logs.textio import read_ras_log, write_ras_log
from repro.obs import get_metrics
from repro.parallel import (
    parallel_read_ras_frame,
    parse_ras_chunk,
    scan_header,
)
from repro.parallel.workers import ChunkTask
from repro.simulate import CalibrationProfile, IntrepidSimulation

from tests.logs.ras_reference import read_ras_log_by_line
from tests.logs.test_block_boundaries import (
    HEADER,
    _row,
    _stamp,
    bounds_after,
    read_with_bounds,
)
from tests.logs.test_block_boundaries import _frame_state as frame_state

POLICIES = [
    pytest.param(IngestPolicy(mode="strict"), id="strict"),
    pytest.param(IngestPolicy(mode="quarantine"), id="quarantine"),
    pytest.param(IngestPolicy(mode="skip"), id="skip"),
    pytest.param(
        IngestPolicy(mode="quarantine", max_bad_records=1), id="max-records"
    ),
    pytest.param(
        IngestPolicy(mode="quarantine", max_bad_fraction=0.0001),
        id="max-fraction",
    ),
]

#: the most pickled bytes a projected first-pass chunk may ship per
#: line: the line, recid, time and cells of its few FATAL candidates and
#: a fixed summary (under half a byte a line on the scale-0.02 trace)
MAX_PROJECTED_PAYLOAD_PER_LINE = 2
#: the same for a second pass, which adds a line index, a recid and a
#: time (8 bytes each) and a kept flag for every candidate (about 26
#: bytes a line; about 50 with every row's cells)
MAX_REPARSED_PAYLOAD_PER_LINE = 32
#: the most traced heap, in batches of ``_BATCH_CHARS``, a worker may
#: hold at its peak beyond the chunk it returns: one batch's bytes, text,
#: lines and split cells, about 10 whatever the range (about 54 on the
#: 6 MB range when the whole range is split as one block)
MAX_WORKER_TRANSIENT_BATCHES = 16


def write_lines(path, rows, ending="\n"):
    """A RAS log of ``(recid, stamp, severity, message)`` rows, in order."""
    text = ending.join([HEADER] + [_row(*r) for r in rows]) + ending
    path.write_bytes(text.encode("utf-8"))
    return path


def error_state(exc):
    if isinstance(exc, IngestError):
        return (type(exc).__name__, exc.line_no, exc.defect, exc.text)
    return (type(exc).__name__, str(exc), exc.report.render())


def outcome(read):
    """A ``fatal_only`` read's frame, report, count and span, or raise."""
    try:
        log = read()
    except (IngestError, IngestAbortError) as exc:
        return ("raise", error_state(exc))
    report = log.quarantine
    return (
        "ok",
        frame_state(log.frame),
        (
            None if report is None else report.render(),
            log.num_records,
            log.time_span() if log.num_records else None,
        ),
    )


def assert_matches_line_reference(path, bounds, policy):
    """The read on *bounds* in a pool and in this process, and at one
    worker, against the per-line reference read's FATAL rows."""
    want = outcome(
        lambda: read_ras_log_by_line(path, policy=policy, fatal_only=True)
    )
    for workers in (1, 2):
        got = outcome(lambda: read_with_bounds(
            path, policy, bounds, workers=workers, fatal_only=True
        ))
        assert got == want, workers
    assert outcome(
        lambda: read_ras_log(path, policy=policy, fatal_only=True)
    ) == want
    return want


def worker_seam(rows) -> int:
    """Index of the last row of a worker's first batch, for a chunk that
    starts at the first data row: the row whose line brings the chunk's
    characters (newlines included) to ``_BATCH_CHARS``."""
    size = 0
    for i, r in enumerate(rows):
        size += len(_row(*r)) + 1
        if size >= _BATCH_CHARS:
            return i
    raise AssertionError("the rows fill no batch")


class TestRejectedLines:
    """Rejected candidates whose samples the merge must read back."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_escaped_crlf_line_on_a_chunk_seam(self, tmp_path, policy):
        rows = [
            ["1", _stamp(0), "INFO", "msg"],
            ["2", _stamp(1), "FATAL", "msg"],
            ["3", _stamp(2), "INFO", "msg"],
            # the last line of chunk 1 and the first of chunk 2: non-FATAL
            # duplicates whose lines hold an escaped separator
            ["1", _stamp(3), "WARN", "left \\p of the seam"],
            ["2", _stamp(4), "INFO", "ddr error \\p rank 3"],
            ["4", _stamp(5), "FATAL", "msg"],
            ["5", _stamp(6), "INFO", "msg"],
        ]
        path = write_lines(tmp_path / "ras.log", rows, ending="\r\n")
        want = assert_matches_line_reference(
            path, bounds_after(path, [4]), policy
        )
        if want[0] == "ok" and policy.mode == "quarantine":
            render = want[2][0]
            assert "duplicate_recid" in render
            assert "ddr error \\\\p rank 3" in render
            assert "\\r" not in render

    @pytest.mark.parametrize("policy", POLICIES)
    def test_rejections_on_a_worker_batch_seam(self, tmp_path, policy):
        # FATAL and ERROR lines are the same length, so the edits below
        # move no seam
        rows = [
            [str(i + 1), _stamp(i), "FATAL" if i % 7 == 0 else "ERROR", "msg"]
            for i in range(14_000)
        ]
        last = worker_seam(rows)
        for i in (last, last + 1):
            rows[i][2] = "ERROR"
        rows[last][0] = rows[last - 3][0]  # a duplicate of an accepted recid
        rows[last + 1][1] = rows[last - 40][1]  # out of order
        # and a line-local defect on each side of the seam
        rows[last - 1][2] = rows[last + 2][2] = "BOGUS"
        assert worker_seam(rows) == last
        path = write_lines(tmp_path / "ras.log", rows)
        # chunk 1 holds the seam and more than one batch; chunk 2 the rest
        bounds = bounds_after(path, [last + 500])
        assert bounds[0][1] - bounds[0][0] > _BATCH_CHARS
        want = assert_matches_line_reference(path, bounds, policy)
        if want[0] == "ok" and policy.mode == "quarantine":
            render = want[2][0]
            for line_no in range(last + 1, last + 5):
                assert f"line {line_no}:" in render

    @pytest.mark.parametrize("policy", POLICIES)
    def test_fatal_row_rejected_by_an_earlier_chunk(self, tmp_path, policy):
        rows = [
            ["1", _stamp(10), "INFO", "msg"],
            ["2", _stamp(20), "WARN", "msg"],
            # chunk 2: a FATAL duplicate of the WARN recid and a FATAL row
            # out of order behind the WARN row's time
            ["2", _stamp(30), "FATAL", "msg"],
            ["3", _stamp(15), "FATAL", "msg"],
            ["4", _stamp(40), "FATAL", "msg"],
        ]
        path = write_lines(tmp_path / "ras.log", rows)
        want = assert_matches_line_reference(
            path, bounds_after(path, [2]), policy
        )
        if want[0] == "ok":
            recids = np.frombuffer(want[1]["recid"][1], dtype=np.int64)
            assert recids.tolist() == [4]
        else:
            assert want[1][0] in ("IngestError", "IngestAbortError")


@pytest.fixture(scope="module")
def trace_range(tmp_path_factory):
    """The data region of a 6 MB simulated RAS log: six batches."""
    path = tmp_path_factory.mktemp("projection") / "ras.log"
    sim = IntrepidSimulation(CalibrationProfile(seed=2011, scale=0.02)).run()
    write_ras_log(sim.ras_log, path)
    _, start = scan_header(path)
    end = os.path.getsize(path)
    assert end - start > 5 * _BATCH_CHARS
    return str(path), start, end


class TestWorkerPayload:
    def test_projected_chunk_ships_fatal_cells_only(self, trace_range):
        """A first pass ships its FATAL candidates and a summary of the
        rest; a second pass ships every candidate's line, recid and time
        but cells for the FATAL ones only."""
        full = parse_ras_chunk((*trace_range, False)).cand
        fatal = full.to_frame()["severity"] == "FATAL"
        chunk = parse_ras_chunk((*trace_range, True))
        assert chunk.ordered and chunk.cand.kept is None
        assert chunk.n_cand == len(full)
        assert 0 < len(chunk.cand) == int(fatal.sum()) < len(full) // 10
        assert chunk.cand.lines.tobytes() == full.lines[fatal].tobytes()
        assert set(chunk.cand.to_frame()["severity"].tolist()) == {"FATAL"}
        assert (chunk.first_recid, chunk.last_recid) == (
            full.recids[0], full.recids[-1]
        )
        assert (chunk.first_time, chunk.max_time) == (
            full.times[0], full.times.max()
        )
        size = len(pickle.dumps(chunk))
        assert size <= MAX_PROJECTED_PAYLOAD_PER_LINE * chunk.n_lines, (
            size / chunk.n_lines
        )

        chunk = parse_ras_chunk(ChunkTask(*trace_range, True, every_row=True))
        cand = chunk.cand
        assert not chunk.ordered and cand.kept.tobytes() == fatal.tobytes()
        assert cand.recids.tobytes() == full.recids.tobytes()
        assert [len(col) for col in cand.cells] == [int(fatal.sum())] * 8
        size = len(pickle.dumps(chunk))
        assert size <= MAX_REPARSED_PAYLOAD_PER_LINE * chunk.n_lines, (
            size / chunk.n_lines
        )

    def test_full_chunk_ships_every_candidate_cells(self, trace_range):
        chunk = parse_ras_chunk((*trace_range, False))
        assert chunk.cand.kept is None
        assert [len(col) for col in chunk.cand.cells] == [len(chunk.cand)] * 8


class TestWorkerMemory:
    @pytest.mark.parametrize("fatal_only", [False, True])
    def test_peak_is_one_batch_not_the_range(self, trace_range, fatal_only):
        """A worker reads and splits one batch at a time, not its range."""
        task = (*trace_range, fatal_only)
        parse_ras_chunk(task)  # imports and first-call caches stay out
        gc.collect()
        tracemalloc.start()
        try:
            chunk = parse_ras_chunk(task)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chunk.n_lines > 40_000
        batches = (peak - kept) / _BATCH_CHARS
        assert batches <= MAX_WORKER_TRANSIENT_BATCHES, batches


# -- the second pass ------------------------------------------------------

#: strict, quarantine and skip
SECOND_PASS_POLICIES = POLICIES[:3]

#: rows of the second-pass logs: three batches of ``_row`` lines
_N_ROWS = 7_000
#: the chunk seam of the second-pass logs, after this many rows
_CHUNK_SPLIT = 5_000


def _ordered_rows():
    """In-order rows with every seventh FATAL and one line-local defect."""
    rows = [
        [str(i + 1), _stamp(i), "FATAL" if i % 7 == 0 else "INFO", "msg"]
        for i in range(_N_ROWS)
    ]
    rows[100][2] = "BOGUS"
    return rows


def _duplicate(rows):
    rows[2_996][0] = rows[2_990][0]  # a FATAL row repeats an accepted recid


def _time_regression(rows):
    rows[4_000][1] = rows[3_950][1]


def _decreasing_recids(rows):
    for i, row in enumerate(rows):
        row[0] = str(_N_ROWS - i)


def _on_batch_seam(rows):
    # the first row of the chunk's second batch repeats the last recid of
    # its first batch
    last = worker_seam(rows)
    rows[last + 1][0] = rows[last][0]


def _on_chunk_seam(rows):
    # the first row of chunk 2 repeats the last recid of chunk 1
    rows[_CHUNK_SPLIT][0] = rows[_CHUNK_SPLIT - 1][0]


SECOND_PASS_LOGS = {
    "in-order": None,
    "duplicate": _duplicate,
    "time-regression": _time_regression,
    "decreasing-recids": _decreasing_recids,
    "batch-seam": _on_batch_seam,
    "chunk-seam": _on_chunk_seam,
}


def read_state(path, policy, bounds, workers):
    """A FATAL-only read's frame and report (counts, samples, clean
    rows and span), or its raise, and the second passes it made."""
    reparsed = get_metrics().counter("ingest.ras.reparsed")
    before = reparsed.value
    report = policy.new_report(str(path))
    try:
        frame = parallel_read_ras_frame(
            path, policy=policy, report=report, workers=workers,
            chunk_bounds=bounds, fatal_only=True,
        )
    except (IngestError, IngestAbortError) as exc:
        return ("raise", error_state(exc)), reparsed.value - before
    samples = {
        d.value: [(r.line_no, r.text) for r in recs]
        for d, recs in report.samples.items()
    }
    state = (
        frame_state(frame), report.as_dict(), samples, report.clean_rows,
        report.clean_span,
    )
    return ("ok", state), reparsed.value - before


class TestSecondPass:
    """A log whose candidates fall out of order, by a defect or not, is
    parsed twice; the result equals a read forced into the second pass
    at once, and the per-line reference."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("policy", SECOND_PASS_POLICIES)
    @pytest.mark.parametrize("log", sorted(SECOND_PASS_LOGS))
    def test_first_pass_equals_forced_second_pass(
        self, tmp_path, monkeypatch, log, policy, workers
    ):
        rows = _ordered_rows()
        if SECOND_PASS_LOGS[log] is not None:
            SECOND_PASS_LOGS[log](rows)
        path = write_lines(tmp_path / "ras.log", rows)
        bounds = bounds_after(path, [_CHUNK_SPLIT])
        assert bounds[0][1] - bounds[0][0] > _BATCH_CHARS
        got, reparsed = read_state(path, policy, bounds, workers)
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.parallel.ingest.chunks_in_order", lambda chunks: False
            )
            forced, forced_reparsed = read_state(path, policy, bounds, workers)
        assert got == forced
        assert (reparsed, forced_reparsed) == (int(log != "in-order"), 1)
        if workers == 1:
            assert_matches_line_reference(path, bounds, policy)


class TestReadMemory:
    def test_fatal_only_read_does_not_grow_with_the_log(
        self, trace_range, tmp_path
    ):
        """A FATAL-only read's traced peak beyond the frame it returns is
        the same, within one batch, for a log four times as long."""
        path, start, end = trace_range
        raw = open(path, "rb").read()
        quarter = tmp_path / "quarter.log"
        cut = raw.index(b"\n", start + (end - start) // 4) + 1
        quarter.write_bytes(raw[:cut])
        del raw

        def transient(log):
            parallel_read_ras_frame(log, workers=1, fatal_only=True)
            gc.collect()
            tracemalloc.start()
            try:
                frame = parallel_read_ras_frame(log, workers=1, fatal_only=True)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert frame.num_rows
            return peak - kept

        growth = transient(path) - transient(str(quarter))
        assert growth <= _BATCH_CHARS, growth
