"""The delimited block kernel against the per-line loop it replaced.

``parse_delimited_block`` must classify every line exactly as
``structural_defect`` + ``typed_cell_defect`` would one at a time, and
type the accepted rows exactly as the old loop did; the job-log reader
built on it must leave the oracle's frame, report and raise under every
policy (:mod:`tests.frame.delim_reference`).
"""

import io

import numpy as np
import pytest

from repro.faults.corruption import LogCorruptor
from repro.frame import Frame
from repro.frame.io import parse_delimited_block, to_string
from repro.logs import (
    IngestAbortError,
    IngestError,
    IngestPolicy,
    JobLog,
    read_job_log,
    write_job_log,
)
from repro.logs.job import JOB_COLUMNS, JOB_SCHEMA
from repro.logs.quarantine import DefectClass, structural_defect, typed_cell_defect

from tests.frame.delim_reference import read_delimited_by_line, read_job_log_by_line
from tests.logs.test_job import make_job

NAMES = ("i", "f", "s", "b")
TAGS = ("int", "float", "str", "bool")

POLICIES = [
    pytest.param(IngestPolicy(mode="strict"), id="strict"),
    pytest.param(IngestPolicy(mode="quarantine"), id="quarantine"),
    pytest.param(IngestPolicy(mode="skip"), id="skip"),
    pytest.param(
        IngestPolicy(mode="quarantine", max_bad_records=4), id="max-records"
    ),
    pytest.param(
        IngestPolicy(mode="quarantine", max_bad_fraction=0.02),
        id="max-fraction",
    ),
]


def line_verdicts(lines, names, tags, sep="|"):
    """The per-line taxonomy: (index, defect) of every rejected line."""
    out = []
    for i, text in enumerate(lines):
        parts = text.split(sep)
        defect = structural_defect(text, len(parts), len(names))
        if defect is None:
            for v, tag in zip(parts, tags):
                defect = typed_cell_defect(v, tag)
                if defect is not None:
                    break
        if defect is not None:
            out.append((i, defect))
    return out


def assert_frames_identical(a: Frame, b: Frame):
    assert a.columns == b.columns
    for name in a.columns:
        x, y = a.col(name), b.col(name)
        assert x.dtype == y.dtype, name
        if x.dtype.kind == "f":
            assert x.tobytes() == y.tobytes(), name
        else:
            assert x.tolist() == y.tolist(), name


class TestKernel:
    def test_clean_block(self):
        lines = ["1|0.5|a|True", "2|-nan|b\\pc|False", "3|inf|a|True"]
        defects, arrays = parse_delimited_block(lines, NAMES, TAGS)
        assert defects == []
        assert arrays[0].dtype == np.int64 and arrays[0].tolist() == [1, 2, 3]
        assert np.signbit(arrays[1][1]) and np.isnan(arrays[1][1])
        assert arrays[2].tolist() == ["a", "b|c", "a"]
        assert arrays[2][0] is arrays[2][2]  # shared string cells
        assert arrays[3].tolist() == [True, False, True]

    def test_each_defect_class(self):
        lines = [
            "1|0.5|a|True",
            "",
            "   ",
            "2|0.5|a",
            "3|0.5|a|True|extra",
            "4|0.5|�|True",
            "x|0.5|a|True",
            "5|zero|a|True",
            "6|0.5|a|yes",
            "7|1e3|a|False",
        ]
        defects, arrays = parse_delimited_block(lines, NAMES, TAGS)
        assert defects == [
            (1, DefectClass.BLANK_LINE),
            (2, DefectClass.BLANK_LINE),
            (3, DefectClass.TRUNCATED_LINE),
            (4, DefectClass.GARBLED_DELIMITER),
            (5, DefectClass.ENCODING_GARBAGE),
            (6, DefectClass.BAD_FIELD),
            (7, DefectClass.BAD_FIELD),
            (8, DefectClass.BAD_FIELD),
        ]
        assert defects == line_verdicts(lines, NAMES, TAGS)
        assert arrays[0].tolist() == [1, 7]
        assert arrays[1].tolist() == [0.5, 1000.0]

    def test_empty_block_is_typed(self):
        defects, arrays = parse_delimited_block([], NAMES, TAGS)
        assert defects == []
        assert [a.dtype.kind for a in arrays] == ["i", "f", "O", "b"]
        assert all(len(a) == 0 for a in arrays)

    def test_one_column_blank_lines(self):
        lines = ["7", "", "  ", "8", "x"]
        defects, arrays = parse_delimited_block(lines, ("n",), ("int",))
        assert defects == line_verdicts(lines, ("n",), ("int",))
        assert arrays[0].tolist() == [7, 8]

    def test_blank_separator(self):
        lines = ["1\t2.0", "\t", "x\t1"]
        names, tags = ("a", "b"), ("int", "float")
        defects, arrays = parse_delimited_block(lines, names, tags, sep="\t")
        assert defects == line_verdicts(lines, names, tags, sep="\t")
        assert defects[0] == (1, DefectClass.BLANK_LINE)
        assert arrays[0].tolist() == [1]

    def test_fuzzed_lines_match_the_line_loop(self):
        rng = np.random.default_rng(19)
        alphabet = list("0123456789.-+eEnaTrueFls|\\p �_x")
        frame = Frame(
            {
                "i": rng.integers(-50, 50, 60),
                "f": rng.normal(size=60),
                "s": np.array([f"v{k % 7}|\\" for k in range(60)], dtype=object),
                "b": rng.random(60) < 0.5,
            }
        )
        clean = to_string(frame).splitlines()[1:]
        for _ in range(40):
            lines = list(clean)
            for k in rng.choice(len(lines), 12, replace=False).tolist():
                chars = list(lines[k])
                for _ in range(int(rng.integers(1, 4))):
                    pos = int(rng.integers(0, len(chars) + 1))
                    if chars and rng.random() < 0.5:
                        del chars[min(pos, len(chars) - 1)]
                    else:
                        chars.insert(pos, str(rng.choice(alphabet)))
                lines[k] = "".join(chars)
            defects, arrays = parse_delimited_block(lines, NAMES, TAGS)
            assert defects == line_verdicts(lines, NAMES, TAGS)
            text = "i:int|f:float|s:str|b:bool\n" + "\n".join(lines) + "\n"
            expected = read_delimited_by_line(
                io.StringIO(text), policy="skip"
            )
            assert_frames_identical(Frame(dict(zip(NAMES, arrays))), expected)


def outcome(reader, path, policy):
    """A fully comparable record of one job-log read."""
    try:
        log = reader(path, policy=policy)
    except IngestError as exc:
        return ("ingest_error", exc.line_no, exc.defect, exc.text, str(exc))
    except IngestAbortError as exc:
        report = exc.report
        return ("abort", str(exc), report.total_rows, report_state(report))
    frame = log.frame
    cols = {
        name: (frame[name].dtype.str, frame[name].tobytes()
               if frame[name].dtype.kind == "f" else frame[name].tolist())
        for name in frame.columns
    }
    report = log.quarantine
    return ("ok", cols, None if report is None else report_state(report))


def report_state(report):
    return (
        report.total_rows,
        report.as_dict(),
        {
            d.value: [(r.line_no, r.defect, r.text) for r in recs]
            for d, recs in report.samples.items()
        },
    )


def oracle(path, policy):
    log = read_job_log_by_line(path, policy=policy)
    if policy.is_strict:
        log.quarantine = None
    return log


@pytest.fixture(scope="module")
def job_file(tmp_path_factory):
    jobs = [
        make_job(job_id=i, start=1000.0 + 60.0 * i, end=1800.0 + 61.5 * i,
                 executable=f"/home/u/app{i % 5}", user=f"u{i % 3}")
        for i in range(1, 301)
    ]
    path = tmp_path_factory.mktemp("delim") / "job.log"
    write_job_log(JobLog.from_records(jobs), path)
    return path


class TestJobReaderMatchesLineLoop:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed,rate", [(1, 0.05), (4, 0.02), (7, 0.2)])
    def test_corrupted_job_log(self, job_file, tmp_path, policy, seed, rate):
        bad = tmp_path / "job_bad.log"
        result = LogCorruptor(seed=seed, rate=rate, kind="job").corrupt_file(
            job_file, bad
        )
        assert result.num_injected > 0
        expected = outcome(oracle, bad, policy)
        assert outcome(read_job_log, bad, policy) == expected

    def test_strict_raises_on_the_oracle_line(self, job_file, tmp_path):
        bad = tmp_path / "job_bad.log"
        LogCorruptor(seed=2, rate=0.05, kind="job").corrupt_file(job_file, bad)
        with pytest.raises(IngestError) as exc:
            read_job_log(bad)
        with pytest.raises(IngestError) as ref:
            read_job_log_by_line(bad)
        assert exc.value.line_no == ref.value.line_no > 1

    def test_clean_log(self, job_file):
        policy = IngestPolicy(mode="quarantine")
        assert outcome(read_job_log, job_file, policy) == outcome(
            oracle, job_file, policy
        )

    def test_crlf_stream(self, job_file, tmp_path):
        lines = job_file.read_text().splitlines()
        text = "\r\n".join(lines[:3] + ["x" + lines[3]] + lines[4:6]) + "\r\n"
        path = tmp_path / "crlf.log"
        path.write_bytes(text.encode("utf-8"))
        policy = IngestPolicy(mode="skip")
        assert outcome(read_job_log, path, policy) == outcome(oracle, path, policy)
        assert read_job_log(path, policy=policy).frame["job_id"].tolist() == [
            1, 2, 4, 5,
        ]


class TestJobHeaderIsPinned:
    def test_schema_is_the_writers_header(self, job_file):
        header = job_file.read_text().splitlines()[0]
        assert header == "|".join(f"{n}:{t}" for n, t in JOB_SCHEMA)
        assert JOB_COLUMNS == tuple(n for n, _ in JOB_SCHEMA)

    @pytest.mark.parametrize("policy", ["strict", "quarantine"])
    def test_retyped_header_raises(self, job_file, tmp_path, policy):
        text = job_file.read_text().replace("job_id:int", "job_id:str", 1)
        bad = tmp_path / "retyped.log"
        bad.write_text(text)
        with pytest.raises(ValueError, match="unexpected job header"):
            read_job_log(bad, policy=policy)

    def test_renamed_header_raises(self, job_file, tmp_path):
        text = job_file.read_text().replace("user:str", "owner:str", 1)
        bad = tmp_path / "renamed.log"
        bad.write_text(text)
        with pytest.raises(ValueError, match="unexpected job header"):
            read_job_log(bad, policy="quarantine")
