"""The job-log reader against the per-line oracle, batch seams included.

``read_job_log`` reads the data region in ``_BATCH_CHARS`` batches
(:func:`repro.parallel.workers.iter_line_batches`) and classifies each
with the delimited block kernel. Whatever the line endings, a BOM, or
damage on the lines either side of a batch seam, it must give the
frame, report and raise of the line-at-a-time reference reader
(:mod:`tests.frame.delim_reference`) under every policy, keep one
``str`` per distinct value per column across batches, and hold a
bounded number of batches beyond the frame it returns.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.frame import Frame
from repro.logs import IngestAbortError, IngestError, IngestPolicy, JobLog
from repro.logs.job import JOB_COLUMNS
from repro.logs.stream import _BATCH_CHARS
from repro.logs.textio import read_job_log, write_job_log
from repro.parallel.chunking import scan_header
from repro.parallel.workers import iter_line_batches

from tests.frame.delim_reference import read_job_log_by_line

POLICIES = [
    pytest.param(IngestPolicy(mode="strict"), id="strict"),
    pytest.param(IngestPolicy(mode="quarantine"), id="quarantine"),
    pytest.param(IngestPolicy(mode="skip"), id="skip"),
    pytest.param(
        IngestPolicy(mode="quarantine", max_bad_records=1), id="max-records"
    ),
    pytest.param(
        IngestPolicy(mode="skip", max_bad_fraction=1e-4), id="max-fraction"
    ),
]

#: line terminators, and whether the file starts with a UTF-8 BOM
LAYOUTS = {
    "lf": (b"\n", False),
    "crlf": (b"\r\n", False),
    "lone-cr": (b"\r", False),
    "bom": (b"\n", True),
}


def _bad_cell(line: bytes) -> bytes:
    return b"x" + line[1:]  # the job id is no int


def _blank(line: bytes) -> bytes:
    return b" " * len(line)


def _encoding(line: bytes) -> bytes:
    cut = line.index(b"|") + 1  # the job name: not valid UTF-8
    return line[:cut] + b"\xff\xfe" + line[cut + 2:]


def _lone_cr(line: bytes) -> bytes:
    cut = len(line) // 2  # a carriage return ends the line early
    return line[:cut] + b"\r" + line[cut + 1:]


#: length-preserving damage, so the seam stays at the same byte
DAMAGE = {
    "clean": None,
    "bad-cell": _bad_cell,
    "blank": _blank,
    "encoding": _encoding,
    "lone-cr": _lone_cr,
}

_BOM = b"\xef\xbb\xbf"

#: the traced peak beyond the returned frame a job read may reach, in
#: batches
MAX_TRANSIENT_BATCHES = 16


def job_frame(n: int, seed: int = 0) -> Frame:
    """*n* jobs with the simulator's column cardinalities."""
    rng = np.random.default_rng(seed)
    queued = np.sort(rng.uniform(1.2e9, 1.22e9, n))
    start = queued + rng.uniform(0.0, 3600.0, n)
    end = start + rng.uniform(60.0, 86400.0, n)
    apps = rng.integers(0, 3000, n).tolist()
    users = [a % 300 for a in apps]
    return Frame({
        "job_id": np.arange(1, n + 1),
        "job_name": np.array(["N.A."] * n, dtype=object),
        "executable": np.array(
            [f"/gpfs/home/u{u:03d}/bin/app{a:05d}.x" for u, a in zip(users, apps)],
            dtype=object,
        ),
        "queued_time": queued,
        "start_time": start,
        "end_time": end,
        "location": np.array(
            [f"R{r // 2:02d}-M{r % 2}" for r in rng.integers(0, 80, n).tolist()],
            dtype=object,
        ),
        "user": np.array([f"u{u:03d}" for u in users], dtype=object),
        "project": np.array(
            [f"proj{p:02d}" for p in rng.integers(0, 60, n).tolist()],
            dtype=object,
        ),
        "size_midplanes": rng.choice([1, 2, 4, 8, 16], n),
    })


@pytest.fixture(scope="module")
def clean_lines(tmp_path_factory):
    """A clean job log of a little over two batches, as lines of bytes
    (the header first)."""
    path = tmp_path_factory.mktemp("jobread") / "job.log"
    write_job_log(JobLog(job_frame(5000)), path)
    lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) * 115 > 2 * _BATCH_CHARS
    return lines


def first_batch_lines(path) -> int:
    _, start = scan_header(path)
    return len(next(iter_line_batches(str(path), start, path.stat().st_size)))


@pytest.fixture(scope="module")
def seam_logs(clean_lines, tmp_path_factory):
    """Each (layout, damage) log, its damage on the last line of the
    first batch and the first line of the second."""
    root = tmp_path_factory.mktemp("seams")
    logs = {}
    for layout, (end, bom) in LAYOUTS.items():
        def render(lines):
            return (_BOM if bom else b"") + b"".join(v + end for v in lines)

        clean = root / f"{layout}.log"
        clean.write_bytes(render(clean_lines))
        first = first_batch_lines(clean)
        seam = [i for i in (first, first + 1) if i < len(clean_lines)]
        if layout == "lone-cr":
            # no \n byte ends a batch early: the file is one batch
            assert seam == [len(clean_lines) - 1]
        else:
            assert len(seam) == 2
        for name, damage in DAMAGE.items():
            lines = list(clean_lines)
            for i in seam if damage else ():
                lines[i] = damage(lines[i])
            path = root / f"{layout}-{name}.log"
            path.write_bytes(render(lines))
            assert path.stat().st_size == clean.stat().st_size
            logs[layout, name] = path
    return logs


def outcome(reader, path, policy):
    """Everything a read shows: the frame's dtypes and bytes, or the raise."""
    try:
        log = reader(path, policy=policy)
    except IngestError as exc:
        return ("ingest_error", exc.line_no, exc.defect, str(exc))
    except IngestAbortError as exc:
        report = exc.report
        return ("abort", str(exc), report.total_rows, report.render("job"))
    frame = log.frame
    cols = {
        name: (frame[name].dtype.str, frame[name].tobytes()
               if frame[name].dtype.kind != "O" else frame[name].tolist())
        for name in frame.columns
    }
    report = log.quarantine
    return (
        "ok",
        cols,
        None if report is None else (report.clean_rows, report.render("job")),
    )


def oracle(path, policy):
    log = read_job_log_by_line(path, policy=policy)
    if policy.is_strict:
        log.quarantine = None
    return log


class TestSeams:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("damage", list(DAMAGE))
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_matches_line_reader(self, seam_logs, layout, damage, policy):
        path = seam_logs[layout, damage]
        assert outcome(read_job_log, path, policy) == outcome(oracle, path, policy)

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_damage_is_found(self, seam_logs, layout):
        for name in DAMAGE:
            log = read_job_log(seam_logs[layout, name], policy="quarantine")
            found = log.quarantine.bad_rows
            assert found == 0 if name == "clean" else found >= 1, name

    def test_clean_rows_count_every_accepted_line(self, seam_logs, clean_lines):
        log = read_job_log(seam_logs["crlf", "bad-cell"], policy="skip")
        assert log.quarantine.clean_rows == log.num_jobs == len(clean_lines) - 3


class TestSharedStrings:
    def test_one_object_per_value_across_batches(self, seam_logs):
        path = seam_logs["lf", "clean"]
        _, start = scan_header(path)
        batches = list(iter_line_batches(str(path), start, path.stat().st_size))
        assert len(batches) >= 3
        frame = read_job_log(path).frame
        for name in JOB_COLUMNS:
            col = frame.col(name)
            if col.dtype.kind == "O":
                assert len({id(v) for v in col}) == len(set(col)), name


class TestReadMemory:
    def test_peak_is_batches_plus_the_frame(self, tmp_path):
        """Reading a 6 MB job log holds, beyond the frame it returns, no
        more than a fixed number of batches: not every line and cell."""
        path = tmp_path / "job.log"
        write_job_log(JobLog(job_frame(55_000, seed=1)), path)
        assert path.stat().st_size >= 6 * 10**6
        read_job_log(path)  # imports and first-call caches
        gc.collect()
        tracemalloc.start()
        try:
            log = read_job_log(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.num_jobs == 55_000
        assert peak - kept <= MAX_TRANSIENT_BATCHES * _BATCH_CHARS, peak - kept
