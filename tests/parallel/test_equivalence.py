"""Chunk reader against the per-line reference: every policy, the fuzz
corpus, and defects crafted to straddle chunk boundaries.

The contract under test: for any input file and any ingest policy, the
RAS reader's observable behaviour — frame bytes, quarantine counts and
samples, strict raises, mid-stream and end-of-file aborts — equals the
per-line reference reader's exactly, at any worker count (one chunk in
process at one worker) and for any chunk placement. The job log has one
serial reader; it must match its per-line reference loop the same way.
"""

import numpy as np
import pytest

from repro.faults.corruption import RAS_DEFECT_CLASSES, LogCorruptor
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
from repro.parallel import parallel_read_ras_frame, scan_header
from repro.parallel.ingest import resolve_workers

from tests.frame.delim_reference import read_job_log_by_line
from tests.logs.ras_reference import read_ras_log_by_line
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
        IngestPolicy(mode="quarantine", max_bad_fraction=0.02), id="max-fraction"
    ),
]


@pytest.fixture(scope="module")
def ras_file(tmp_path_factory):
    records = [
        make_record(
            recid=i,
            t=1000.0 + 7.0 * i,
            severity=("FATAL" if i % 11 == 0 else "INFO"),
        )
        for i in range(1, 401)
    ]
    path = tmp_path_factory.mktemp("pareq") / "ras.log"
    write_ras_log(RasLog.from_records(records), path)
    return path


@pytest.fixture(scope="module")
def corrupted_ras(ras_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("pareq") / "ras_bad.log"
    LogCorruptor(seed=3, rate=0.1, kind="ras").corrupt_file(ras_file, out)
    return out


@pytest.fixture(scope="module")
def corrupted_job(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pareq")
    jobs = [
        make_job(job_id=i, start=1000.0 + 60.0 * i, end=1800.0 + 60.0 * i)
        for i in range(1, 201)
    ]
    clean = tmp / "job.log"
    write_job_log(JobLog.from_records(jobs), clean)
    out = tmp / "job_bad.log"
    LogCorruptor(seed=9, rate=0.1, kind="job").corrupt_file(clean, out)
    return out


def outcome(reader, path, policy, workers=None):
    """A fully comparable record of one read attempt."""
    try:
        if workers is None:
            log = reader(path, policy=policy)
        else:
            log = reader(path, policy=policy, workers=workers)
    except IngestError as exc:
        return ("ingest_error", exc.line_no, exc.defect, exc.text)
    except IngestAbortError as exc:
        return (
            "abort",
            str(exc),
            exc.report.total_rows,
            exc.report.as_dict(),
        )
    report = log.quarantine
    rep_state = None
    if report is not None:
        rep_state = (
            report.total_rows,
            report.as_dict(),
            {
                d.value: [(r.line_no, r.defect, r.text) for r in recs]
                for d, recs in report.samples.items()
            },
        )
    cols = {
        name: (log.frame[name].dtype.str, log.frame[name].tolist())
        for name in log.frame.columns
    }
    return ("ok", cols, rep_state)


def assert_equivalent(path, policy, workers=4):
    want = outcome(read_ras_log_by_line, path, policy)
    assert outcome(read_ras_log, path, policy, 1) == want
    assert outcome(read_ras_log, path, policy, workers) == want


class TestPolicyMatrix:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_clean_ras(self, ras_file, policy):
        assert_equivalent(ras_file, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_corrupted_ras(self, corrupted_ras, policy):
        assert_equivalent(corrupted_ras, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_corrupted_job(self, corrupted_job, policy):
        # the job log has no pool: its reference is the per-line loop
        def reference(path, policy):
            log = read_job_log_by_line(path, policy=policy)
            if policy.is_strict:
                log.quarantine = None
            return log

        assert outcome(read_job_log, corrupted_job, policy) == outcome(
            reference, corrupted_job, policy
        )

    @pytest.mark.parametrize(
        "cls", RAS_DEFECT_CLASSES, ids=lambda c: c.value
    )
    def test_each_defect_class_alone(self, ras_file, tmp_path, cls):
        out = tmp_path / "bad.log"
        result = LogCorruptor(
            seed=11, rate=0.05, kind="ras", classes=(cls,)
        ).corrupt_file(ras_file, out)
        assert result.num_injected > 0
        assert_equivalent(out, IngestPolicy(mode="quarantine"))

    def test_worker_counts_all_agree(self, corrupted_ras):
        base = outcome(read_ras_log_by_line, corrupted_ras, "quarantine")
        for workers in (1, 2, 3, 5, 8):
            assert base == outcome(
                read_ras_log, corrupted_ras, "quarantine", workers
            )

    def test_auto_workers(self, ras_file):
        assert resolve_workers(0) >= 1
        assert_equivalent(ras_file, "quarantine", workers=0)

    def test_negative_workers_rejected(self, ras_file):
        with pytest.raises(ValueError, match="non-negative"):
            read_ras_log(ras_file, policy="quarantine", workers=-1)


class TestDegenerateFiles:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.log"
        p.write_text("")
        assert_equivalent(p, "quarantine")

    def test_header_only(self, ras_file, tmp_path):
        p = tmp_path / "header.log"
        p.write_text(ras_file.read_text().splitlines()[0] + "\n")
        assert_equivalent(p, "quarantine")

    def test_wrong_header_raises_both_ways(self, tmp_path):
        p = tmp_path / "wrong.log"
        p.write_text("not:int|the:str|schema:str\n1|x|y\n")
        for workers in (1, 4):
            with pytest.raises(ValueError, match="unexpected RAS header"):
                read_ras_log(p, policy="quarantine", workers=workers)


def _bounds_after(path, split_rows):
    """Chunk bounds cutting the data region after the given row counts."""
    _, start = scan_header(path)
    raw = path.read_bytes()
    offsets = [start]
    pos = start
    while pos < len(raw):
        pos = raw.index(b"\n", pos) + 1
        offsets.append(pos)
    cuts = [start] + [offsets[k] for k in split_rows] + [len(raw)]
    return list(zip(cuts[:-1], cuts[1:]))


def _write_rows(tmp_path, recids, times):
    # RasLog.from_records sorts by (event_time, recid); boundary tests
    # need exact row placement, so build the frame in the given order
    from repro.frame import Frame
    from repro.logs.ras import RAS_COLUMNS

    n = len(recids)
    data = {
        "recid": np.array(recids, dtype=np.int64),
        "msg_id": np.array(["KERN_0802"] * n, dtype=object),
        "component": np.array(["KERNEL"] * n, dtype=object),
        "subcomponent": np.array(["_bgp_unit"] * n, dtype=object),
        "errcode": np.array(["KERN_PANIC"] * n, dtype=object),
        "severity": np.array(["FATAL"] * n, dtype=object),
        "event_time": np.array(times, dtype=np.float64),
        "location": np.array(["R00-M0"] * n, dtype=object),
        "serialnumber": np.array(["SN1"] * n, dtype=object),
        "message": np.array(["msg"] * n, dtype=object),
    }
    path = tmp_path / "crafted.log"
    write_ras_log(RasLog(Frame({c: data[c] for c in RAS_COLUMNS})), path)
    return path


class TestCrossChunkBoundaries:
    """Defects placed exactly on a chunk boundary by pinning the cuts."""

    def check(self, path, bounds, policy="quarantine"):
        from repro.logs.quarantine import coerce_policy

        want = read_ras_log_by_line(path, policy=policy)
        pol = coerce_policy(policy)
        for workers in (1, 4):
            report = pol.new_report(str(path))
            frame = parallel_read_ras_frame(
                path, policy=pol, report=report, workers=workers,
                chunk_bounds=bounds,
            )
            for col in want.frame.columns:
                assert np.array_equal(want.frame[col], frame[col]), col
            want_rep = want.quarantine
            assert want_rep.total_rows == report.total_rows
            assert want_rep.as_dict() == report.as_dict()
            assert {
                d: [(r.line_no, r.text) for r in recs]
                for d, recs in want_rep.samples.items()
            } == {
                d: [(r.line_no, r.text) for r in recs]
                for d, recs in report.samples.items()
            }
        return frame, report

    def test_duplicate_recid_across_boundary(self, tmp_path):
        times = [100.0, 107.0, 114.0, 121.0, 128.0]
        # (recids, accepted recids, duplicates): strictly increasing
        # recids skip the duplicate search, so every other shape must
        # still find each duplicate and no false one
        cases = [
            ([1, 2, 3, 2, 4], [1, 2, 3, 4], 1),
            ([3, 1, 4, 2, 5], [3, 1, 4, 2, 5], 0),  # distinct, not monotone
            ([5, 7, 6, 5, 8], [5, 7, 6, 8], 1),  # a duplicate after a drop
            ([1, 1, 2, 3, 3], [1, 2, 3], 2),  # equal neighbours
            ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 0),
        ]
        for recids, kept, dups in cases:
            path = _write_rows(tmp_path, recids, times)
            for splits in ([3], [1, 2, 3, 4]):
                frame, report = self.check(path, _bounds_after(path, splits))
                assert frame["recid"].tolist() == kept, recids
                assert report.as_dict() == (
                    {"duplicate_recid": dups} if dups else {}
                ), recids

    def test_out_of_order_across_boundary(self, tmp_path):
        path = _write_rows(
            tmp_path, [1, 2, 3, 4], [100.0, 110.0, 105.0, 120.0]
        )
        frame, report = self.check(path, _bounds_after(path, [2]))
        assert frame["recid"].tolist() == [1, 2, 4]
        assert report.as_dict() == {"out_of_order_time": 1}

    def test_rejected_duplicate_does_not_poison_time_order(self, tmp_path):
        """A cross-chunk duplicate's (large) time must not advance the
        accepted-time cursor: the row after it is in order serially and
        must stay accepted under any chunking."""
        path = _write_rows(
            tmp_path, [1, 2, 2, 3], [100.0, 110.0, 150.0, 120.0]
        )
        for splits in ([2], [2, 3], [1, 2, 3]):
            frame, report = self.check(path, _bounds_after(path, splits))
            assert frame["recid"].tolist() == [1, 2, 3]
            assert report.as_dict() == {"duplicate_recid": 1}

    def test_strict_raise_matches_serial_line(self, tmp_path):
        path = _write_rows(
            tmp_path, [1, 2, 2, 3], [100.0, 110.0, 150.0, 120.0]
        )
        with pytest.raises(IngestError) as serial_exc:
            read_ras_log_by_line(path, policy="strict")
        from repro.logs.quarantine import coerce_policy

        pol = coerce_policy("strict")
        with pytest.raises(IngestError) as par_exc:
            parallel_read_ras_frame(
                path,
                policy=pol,
                report=pol.new_report(str(path)),
                workers=4,
                chunk_bounds=_bounds_after(path, [2]),
            )
        assert par_exc.value.line_no == serial_exc.value.line_no == 4
        assert par_exc.value.defect == serial_exc.value.defect
        assert par_exc.value.text == serial_exc.value.text


class TestAbortAtBoundaries:
    """``max_bad_records`` aborts crossed exactly at a chunk boundary.

    The abort must fire at the same record with the same report state
    whether the fatal defect is the first row of a chunk, the last row
    of the previous chunk, or mid-chunk — the merge replays defects in
    global line order with the serial running ``total_rows``.
    """

    #: recids [1,2,1,3,2,4]: duplicates at row indices 2 and 4; with
    #: max_bad_records=1 the second duplicate (line 6) is the abort
    ROWS = ([1, 2, 1, 3, 2, 4], [100.0, 107.0, 114.0, 121.0, 128.0, 135.0])

    def _abort_outcome_serial(self, path, policy):
        with pytest.raises(IngestAbortError) as exc:
            read_ras_log_by_line(path, policy=policy)
        return self._exc_state(exc.value)

    def _abort_outcome_parallel(self, path, policy, bounds):
        report = policy.new_report(str(path))
        with pytest.raises(IngestAbortError) as exc:
            parallel_read_ras_frame(
                path, policy=policy, report=report, workers=4,
                chunk_bounds=bounds,
            )
        return self._exc_state(exc.value)

    @staticmethod
    def _exc_state(exc):
        rep = exc.report
        return (
            str(exc),
            rep.total_rows,
            rep.as_dict(),
            {
                d.value: [(r.line_no, r.defect, r.text) for r in recs]
                for d, recs in rep.samples.items()
            },
        )

    @pytest.mark.parametrize(
        "splits",
        [[4], [5], [2], [1, 4], [4, 5], [1, 2, 3, 4, 5]],
        ids=["fatal-starts-chunk", "fatal-ends-chunk", "mid-chunk",
             "both-dups-start-chunks", "fatal-alone", "one-row-chunks"],
    )
    def test_ras_abort_bit_identical(self, tmp_path, splits):
        path = _write_rows(tmp_path, *self.ROWS)
        policy = IngestPolicy(mode="quarantine", max_bad_records=1)
        serial = self._abort_outcome_serial(path, policy)
        bounds = _bounds_after(path, splits)
        assert self._abort_outcome_parallel(path, policy, bounds) == serial

    def test_ras_survives_when_under_limit(self, tmp_path):
        # same file, limit 2: no abort, and the quarantine report is
        # bit-identical with the fatal-free boundary placements
        path = _write_rows(tmp_path, *self.ROWS)
        policy = IngestPolicy(mode="quarantine", max_bad_records=2)
        base = outcome(read_ras_log_by_line, path, policy)
        assert base[0] == "ok"
        for workers in (1, 4):
            assert outcome(read_ras_log, path, policy, workers) == base
