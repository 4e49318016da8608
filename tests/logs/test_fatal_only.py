"""The FATAL-only RAS read against the full read it projects.

``read_ras_log(path, fatal_only=True)`` checks every line exactly as the
full read does but keeps cells only for the FATAL rows. Whatever the
policy, worker count, chunk bounds or cache state, it must give the
FATAL frame of the per-line reference read bit for bit, its record
count and time span, the same quarantine report, or the same raise. The
hand-built logs pin the traps: a FATAL row that only an earlier
non-FATAL row rejects, a log with no FATAL row at all, and FATAL rows
on the reader's batch and chunk seams.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import CoAnalysis
from repro.faults.corruption import LogCorruptor
from repro.logs import (
    IngestAbortError,
    IngestError,
    IngestPolicy,
    JobLog,
    RasLog,
    read_job_log,
    read_ras_log,
    write_job_log,
    write_ras_log,
)
from repro.logs.stream import _BATCH_CHARS
from repro.obs import get_metrics, read_manifest
from repro.parallel import ParseCache

from tests.logs.ras_reference import read_ras_log_by_line
from tests.logs.test_block_boundaries import _frame_state as frame_state
from tests.logs.test_block_boundaries import (
    _stamp,
    _write,
    bounds_after,
    read_with_bounds,
)
from tests.logs.test_job import make_job
from tests.logs.test_ras import make_record

POLICIES = [
    pytest.param(IngestPolicy(mode="strict"), id="strict"),
    pytest.param(IngestPolicy(mode="quarantine"), id="quarantine"),
    pytest.param(IngestPolicy(mode="skip"), id="skip"),
    pytest.param(
        IngestPolicy(mode="quarantine", max_bad_records=5), id="max-records"
    ),
    pytest.param(
        IngestPolicy(mode="quarantine", max_bad_fraction=0.02),
        id="max-fraction",
    ),
    pytest.param(
        IngestPolicy(mode="skip", max_bad_fraction=0.1),
        id="max-fraction-met",
    ),
]

SEVERITY_CYCLE = ("INFO", "WARN", "INFO", "ERROR", "FATAL", "INFO", "FATAL")


def error_state(exc):
    if isinstance(exc, IngestError):
        return (type(exc).__name__, exc.line_no, exc.defect, str(exc))
    return (type(exc).__name__, str(exc), exc.report.render())


def full_outcome(path, policy):
    """What the FATAL-only read must reproduce, taken from the full
    per-line reference read."""
    try:
        log = read_ras_log_by_line(path, policy=policy)
    except (IngestError, IngestAbortError) as exc:
        return ("raise", error_state(exc))
    return (
        "ok",
        frame_state(log.fatal().frame),
        len(log),
        log.time_span() if len(log) else None,
        None if log.quarantine is None else log.quarantine.render(),
    )


def fatal_outcome(path, policy, bounds=None, **kwargs):
    """The FATAL-only read and its cache status, through ``read_ras_log``
    or, with *bounds*, on forced chunk bounds."""
    status = None
    try:
        if bounds is None:
            log = read_ras_log(path, policy=policy, fatal_only=True, **kwargs)
            status = log.cache_status
        else:
            log = read_with_bounds(path, policy, bounds, fatal_only=True)
    except (IngestError, IngestAbortError) as exc:
        return ("raise", error_state(exc)), None
    assert set(log.frame["severity"].tolist()) <= {"FATAL"}
    return (
        "ok",
        frame_state(log.frame),
        log.num_records,
        log.time_span() if log.num_records else None,
        None if log.quarantine is None else log.quarantine.render(),
    ), status


@pytest.fixture(scope="module")
def clean_ras(tmp_path_factory):
    records = [
        make_record(
            recid=i,
            t=1000.0 + 3.0 * i,
            severity=SEVERITY_CYCLE[i % len(SEVERITY_CYCLE)],
            location=f"R0{i % 4}-M{i % 2}",
        )
        for i in range(1, 601)
    ]
    path = tmp_path_factory.mktemp("fatal") / "ras.log"
    write_ras_log(RasLog.from_records(records), path)
    return path


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda s: f"seed{s}")
def corrupted_ras(request, clean_ras, tmp_path_factory):
    out = tmp_path_factory.mktemp("fatal") / "ras_bad.log"
    LogCorruptor(seed=request.param, rate=0.06, kind="ras").corrupt_file(
        clean_ras, out
    )
    return out


class TestCorruptedLogs:
    """Every policy, at one to three workers, on forced chunk bounds
    and through the cache."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_serial(self, corrupted_ras, policy):
        want = full_outcome(corrupted_ras, policy)
        got, status = fatal_outcome(corrupted_ras, policy)
        assert got == want
        assert status is None
        # a chunk seam every 97 lines, all parsed in this process
        bounds = bounds_after(corrupted_ras, list(range(97, 600, 97)))
        assert fatal_outcome(corrupted_ras, policy, bounds)[0] == want

    @pytest.mark.parametrize("policy", POLICIES)
    def test_two_workers(self, corrupted_ras, policy):
        want = full_outcome(corrupted_ras, policy)
        for workers in (2, 3):
            got, _ = fatal_outcome(corrupted_ras, policy, workers=workers)
            assert got == want, workers

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cache_miss_then_hit(self, corrupted_ras, policy, tmp_path):
        want = full_outcome(corrupted_ras, policy)
        cache = ParseCache(tmp_path / "cache")
        miss, miss_status = fatal_outcome(
            corrupted_ras, policy, workers=2, cache=cache
        )
        hit, hit_status = fatal_outcome(corrupted_ras, policy, cache=cache)
        assert miss == hit == want
        if want[0] == "ok":
            assert (miss_status, hit_status) == ("miss", "hit")

    def test_some_fatal_rows_survive(self, corrupted_ras):
        log = read_ras_log(corrupted_ras, policy="quarantine", fatal_only=True)
        assert 50 < len(log) < log.num_records


class TestTraps:
    """Verdicts on FATAL rows that only the non-FATAL rows decide."""

    def _both(self, path, policy="quarantine"):
        full = read_ras_log_by_line(path, policy=policy)
        fatal = read_ras_log(path, policy=policy, fatal_only=True)
        assert frame_state(fatal.frame) == frame_state(full.fatal().frame)
        assert fatal.num_records == len(full)
        assert fatal.time_span() == full.time_span()
        assert fatal.quarantine.render() == full.quarantine.render()
        return full, fatal

    def test_fatal_out_of_order_behind_a_non_fatal_row(self, tmp_path):
        path = _write(tmp_path / "ras.log", [
            ["1", _stamp(10), "INFO"],
            ["2", _stamp(5), "FATAL"],  # earlier than the INFO row
            ["3", _stamp(20), "FATAL"],
        ])
        full, fatal = self._both(path)
        assert fatal.frame["recid"].tolist() == [3]
        assert fatal.quarantine.as_dict() == {"out_of_order_time": 1}
        with pytest.raises(IngestError) as want:
            read_ras_log_by_line(path)
        with pytest.raises(IngestError) as got:
            read_ras_log(path, fatal_only=True)
        assert error_state(got.value) == error_state(want.value)
        assert got.value.line_no == 3

    def test_fatal_duplicating_a_non_fatal_recid(self, tmp_path):
        path = _write(tmp_path / "ras.log", [
            ["1", _stamp(1), "WARN"],
            ["1", _stamp(2), "FATAL"],  # recid 1 was accepted as WARN
            ["2", _stamp(3), "FATAL"],
        ])
        full, fatal = self._both(path)
        assert fatal.frame["recid"].tolist() == [2]
        assert fatal.quarantine.as_dict() == {"duplicate_recid": 1}

    def test_non_fatal_rejection_moves_no_fatal_verdict(self, tmp_path):
        # the rejected INFO row must not advance the time cursor
        path = _write(tmp_path / "ras.log", [
            ["1", _stamp(10), "INFO"],
            ["2", _stamp(50), "INFO\\p"],  # garbled: a rejected line
            ["3", _stamp(20), "FATAL"],
        ])
        full, fatal = self._both(path)
        assert fatal.frame["recid"].tolist() == [3]

    def test_last_rows_bad_keeps_the_accepted_span(self, tmp_path):
        path = _write(tmp_path / "ras.log", [
            ["1", _stamp(10), "INFO"],
            ["2", _stamp(30), "FATAL"],
            ["3", _stamp(5), "INFO"],  # out of order: not in the span
        ])
        full, fatal = self._both(path)
        assert fatal.time_span() == full.time_span()
        assert fatal.num_records == 2


def _strip(text: str) -> str:
    """A report minus what may differ by run: the parse-cache line and
    the stage timings."""
    sections = text.strip("\n").split("\n\n")
    kept = [s for s in sections if not s.startswith("-- Stage timings")]
    if kept and kept[0].startswith("parse cache:"):
        kept[0] = kept[0].split("\n", 1)[1] if "\n" in kept[0] else ""
    return "\n\n".join(kept)


def _analyze(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["analyze", *map(str, argv)]) == 0
    return buf.getvalue()


class TestNoFatalRows:
    """A log with no FATAL row still windows the analysis over its span."""

    @pytest.fixture()
    def logs(self, tmp_path):
        ras = _write(tmp_path / "ras.log", [
            [str(i), _stamp(100 * i), "INFO" if i % 3 else "WARN"]
            for i in range(1, 40)
        ])
        job = tmp_path / "job.log"
        write_job_log(
            JobLog.from_records(
                [make_job(job_id=1, start=1_208_131_300.0,
                          end=1_208_132_000.0, queued=1_208_131_200.0)]
            ),
            job,
        )
        return ras, job

    def test_analyze_report_equals_full_read(self, logs, tmp_path):
        ras, job = logs
        full = read_ras_log_by_line(ras)
        fatal = read_ras_log(ras, fatal_only=True)
        assert len(fatal) == 0 and fatal.num_records == 39
        assert fatal.time_span() == full.time_span()
        want = _strip(
            CoAnalysis(study_workers=1)
            .run(full, read_job_log(job), source=f"{ras} + {job}")
            .report()
        )
        cache = tmp_path / "cache"
        serial = _analyze(
            "--ras", ras, "--job", job, "--workers", 1, "--no-cache"
        )
        miss = _analyze(
            "--ras", ras, "--job", job, "--workers", 2, "--cache-dir", cache
        )
        hit = _analyze(
            "--ras", ras, "--job", job, "--workers", 2, "--cache-dir", cache
        )
        assert miss.startswith("parse cache: ras=miss job=miss")
        assert hit.startswith("parse cache: ras=hit job=hit")
        assert _strip(serial) == _strip(miss) == _strip(hit) == want

    def test_cache_hit_keeps_count_and_span(self, logs, tmp_path):
        ras, _ = logs
        cache = ParseCache(tmp_path / "cache")
        miss = read_ras_log(ras, fatal_only=True, cache=cache)
        hit = read_ras_log(ras, fatal_only=True, cache=cache)
        assert (miss.cache_status, hit.cache_status) == ("miss", "hit")
        assert frame_state(hit.frame) == frame_state(miss.frame)
        assert hit.num_records == miss.num_records == 39
        assert hit.time_span() == miss.time_span()


class TestSeams:
    """FATAL rows and defects on the 1 MB batch seam, and on chunk seams
    placed there and 100k rows in."""

    N_ROWS = 100_010

    @pytest.fixture(scope="class")
    def seams(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("seams")
        rows = [[str(i + 1), _stamp(i), "INFO"] for i in range(self.N_ROWS)]
        probe = _write(tmp / "probe.log", rows)
        with open(probe, encoding="utf-8") as fh:
            fh.readline()
            last = len(fh.readlines(_BATCH_CHARS)) - 1  # batch 1's last row
        # two rows are rejected below, so 100k accepted rows end on data
        # row 100_001
        chunk = 100_001
        for i in (last - 1, last, last + 1, *range(chunk - 1, chunk + 3)):
            rows[i][2] = "FATAL"
        rows[last + 2][0] = rows[last][0]  # a duplicate of a FATAL recid
        rows[last + 3][1] = rows[last - 5][1]  # out of order after the seam
        path = _write(tmp / "ras.log", rows)
        return path, last

    @pytest.mark.parametrize("policy", POLICIES[:3])
    def test_serial_and_pool(self, seams, policy):
        path, _ = seams
        want = full_outcome(path, policy)
        for workers in (1, 2, 3):
            assert fatal_outcome(path, policy, workers=workers)[0] == want

    def test_chunks_close_where_the_full_read_closes(self, seams):
        """Chunk seams on the batch seam and 100k rows in: the FATAL read
        is the full read's FATAL rows, chunk by chunk."""
        path, last = seams
        pol = IngestPolicy(mode="quarantine")
        want = read_ras_log_by_line(path, policy=pol)
        for splits in ([last + 1], [100_001], [last, last + 3, 100_002]):
            bounds = bounds_after(path, splits)
            full = read_with_bounds(path, pol, bounds)
            fatal = read_with_bounds(path, pol, bounds, fatal_only=True)
            assert frame_state(full.frame) == frame_state(want.frame)
            assert frame_state(fatal.frame) == frame_state(
                want.fatal().frame
            )
            assert fatal.quarantine.render() == want.quarantine.render()
            assert fatal.frame["recid"].tolist() == [
                last, last + 1, last + 2, 100_001, 100_002, 100_003, 100_004
            ]


class TestTelemetry:
    def test_ingest_span_counts_accepted_records(self, corrupted_ras, tmp_path):
        out = tmp_path / "run.jsonl"
        job = tmp_path / "job.log"
        write_job_log(JobLog.from_records([make_job()]), job)
        rc = main([
            "analyze", "--ras", str(corrupted_ras), "--job", str(job),
            "--workers", "1", "--no-cache", "--on-bad-record", "skip",
            "--telemetry-out", str(out),
        ])
        assert rc == 0
        full = read_ras_log(corrupted_ras, policy="skip")
        spans = read_manifest(out)["spans"]
        (ras_span,) = [s for s in spans if s["name"] == "ingest.ras"]
        assert ras_span["rows"] == len(full) > len(full.fatal())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_totals_match_the_full_read(self, corrupted_ras, workers):
        def chunk_totals(**kwargs):
            registry = get_metrics()
            mark = registry.mark()
            read_ras_log(corrupted_ras, policy="skip", workers=workers,
                         **kwargs)
            return {
                m["name"]: m["value"]
                for m in registry.snapshot(since=mark)
                if m["name"] in ("ingest.chunk.records", "ingest.chunk.bytes")
            }

        full = chunk_totals()
        assert full["ingest.chunk.records"] > 0
        assert chunk_totals(fatal_only=True) == full


class TestStaleEntry:
    def test_v2_entry_is_stale_and_reparsed(self, corrupted_ras, tmp_path):
        cache = ParseCache(tmp_path / "cache")
        first = read_ras_log(
            corrupted_ras, policy="quarantine", fatal_only=True, cache=cache
        )
        # rewrite the entry in the v2 layout: no span in the report state
        (sidecar,) = cache.directory.glob("*.json")
        payload = json.loads(sidecar.read_text())
        payload["version"] = 2
        del payload["report"]["clean_span"]
        sidecar.write_text(json.dumps(payload))
        again = read_ras_log(
            corrupted_ras, policy="quarantine", fatal_only=True, cache=cache
        )
        assert again.cache_status == "stale"
        third = read_ras_log(
            corrupted_ras, policy="quarantine", fatal_only=True, cache=cache
        )
        assert third.cache_status == "hit"
        for log in (again, third):
            assert frame_state(log.frame) == frame_state(first.frame)
            assert log.num_records == first.num_records
            assert log.time_span() == first.time_span()
            assert log.quarantine.render() == first.quarantine.render()

    def test_full_and_fatal_reads_never_share_an_entry(
        self, clean_ras, tmp_path
    ):
        cache = ParseCache(tmp_path / "cache")
        full = read_ras_log(clean_ras, cache=cache)
        fatal = read_ras_log(clean_ras, fatal_only=True, cache=cache)
        assert (full.cache_status, fatal.cache_status) == ("miss", "miss")
        assert len(list(cache.directory.glob("*.npz"))) == 2
        assert len(read_ras_log(clean_ras, cache=cache)) == 600
        assert np.array_equal(
            read_ras_log(clean_ras, fatal_only=True, cache=cache)
            .frame["recid"],
            full.fatal().frame["recid"],
        )
