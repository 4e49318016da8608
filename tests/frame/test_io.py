"""Unit tests for delimited frame io.

A frame of any typed columns is written with :func:`write_delimited`
and read back with the line-at-a-time reference reader
(:mod:`tests.frame.delim_reference`): the package itself reads only the
two log layouts. The BOM and line-ending tolerance of the package's one
file reader is checked on a job log.
"""

import io

import numpy as np
import pytest

from repro.frame import Frame
from repro.frame.io import to_string, write_delimited
from repro.logs.job import JobLog
from repro.logs.textio import read_job_log, write_job_log

from tests.frame.delim_reference import read_delimited_by_line
from tests.logs.test_job import make_job


def from_string(text: str, sep: str = "|") -> Frame:
    return read_delimited_by_line(io.StringIO(text), sep=sep)


def read_delimited(path) -> Frame:
    return read_delimited_by_line(path)


@pytest.fixture
def mixed():
    return Frame(
        {
            "recid": [1, 2, 3],
            "msg": ["kernel panic", "ddr error", "ok"],
            "t": [1.5, 2.25, 1e-9],
            "fatal": [True, True, False],
        }
    )


class TestRoundTrip:
    def test_types_preserved(self, mixed):
        back = from_string(to_string(mixed))
        assert back["recid"].dtype.kind == "i"
        assert back["t"].dtype.kind == "f"
        assert back["fatal"].dtype.kind == "b"
        assert back["msg"].dtype.kind == "O"

    def test_values_preserved(self, mixed):
        back = from_string(to_string(mixed))
        for c in mixed.columns:
            assert (back[c] == mixed[c]).all()

    def test_float_precision_exact(self):
        f = Frame({"x": [0.1 + 0.2, 1e300, -1e-300]})
        back = from_string(to_string(f))
        assert (back["x"] == f["x"]).all()

    def test_file_roundtrip(self, mixed, tmp_path):
        p = tmp_path / "log.psv"
        write_delimited(mixed, p)
        back = read_delimited(p)
        assert back.num_rows == 3

    def test_empty_frame(self):
        assert from_string(to_string(Frame())).num_rows == 0

    def test_zero_row_frame(self):
        f = Frame({"a": np.array([], dtype=np.int64)})
        back = from_string(to_string(f))
        assert back.num_rows == 0
        assert back.columns == ["a"]


class TestValidation:
    def test_separator_in_cell_roundtrips(self):
        f = Frame({"msg": ["bad|cell"]})
        back = from_string(to_string(f))
        assert back["msg"][0] == "bad|cell"
        # the escaped on-disk form still keeps one row per record
        assert to_string(f).count("\n") == 2

    def test_newline_in_cell_roundtrips(self):
        f = Frame({"msg": ["bad\ncell", "cr\rcell"]})
        back = from_string(to_string(f))
        assert back["msg"][0] == "bad\ncell"
        assert back["msg"][1] == "cr\rcell"

    def test_backslash_escape_sequences_roundtrip(self):
        # adversarial mix: literal backslashes adjacent to chars that
        # look like escape codes must not be mis-unescaped
        values = ["\\", "\\p", "\\n", "a\\|b", "\\\\n", "ends with \\"]
        f = Frame({"msg": values})
        back = from_string(to_string(f))
        assert list(back["msg"]) == values

    def test_escape_roundtrip_property(self):
        # property-style sweep: random strings over the adversarial
        # alphabet (separator, newline, CR, backslash, escape letters)
        rng = np.random.default_rng(42)
        alphabet = list("|\\nrp\n\rax")
        values = [
            "".join(
                alphabet[i]
                for i in rng.integers(0, len(alphabet), size=length)
            )
            for length in rng.integers(0, 24, size=200)
        ]
        # the index column keeps a row whose cell is empty from being a
        # blank line, which a validating reader rejects
        f = Frame({"i": np.arange(len(values)), "msg": values})
        back = from_string(to_string(f))
        assert list(back["msg"]) == values

    def test_alternate_separator(self):
        f = Frame({"msg": ["has|pipe"]})
        back = from_string(to_string(f, sep="\t"), sep="\t")
        assert back["msg"][0] == "has|pipe"

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="line 3: truncated"):
            from_string("a:int|b:int\n1|2\n3\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            from_string("a:complex\n")

    def test_colon_in_column_name(self):
        f = Frame({"weird:name": [1]})
        back = from_string(to_string(f))
        assert back.columns == ["weird:name"]


class TestTolerantDecoding:
    @pytest.fixture
    def jobs(self):
        return JobLog.from_records(
            [make_job(job_id=i, start=1000.0 + i) for i in range(1, 4)]
        ).frame

    def _job_text(self, jobs, tmp_path) -> str:
        p = tmp_path / "clean.log"
        write_job_log(JobLog(jobs), p)
        return p.read_text(encoding="utf-8")

    def test_utf8_bom_tolerated(self, jobs, tmp_path):
        p = tmp_path / "bom.log"
        p.write_bytes(b"\xef\xbb\xbf" + self._job_text(jobs, tmp_path).encode())
        back = read_job_log(p).frame
        assert back.columns == jobs.columns
        assert back.num_rows == 3

    def test_crlf_line_endings_tolerated(self, jobs, tmp_path):
        p = tmp_path / "crlf.log"
        p.write_bytes(
            self._job_text(jobs, tmp_path).replace("\n", "\r\n").encode()
        )
        back = read_job_log(p).frame
        assert back.num_rows == 3
        for c in jobs.columns:
            assert (back[c] == jobs[c]).all()


class TestFloatBitRoundTrip:
    """Serialization is repr-based (shortest round-tripping decimal),
    so every IEEE-754 double — specials included — survives write/read
    with its exact bit pattern. Regression for the old '%.17g'
    formatter that collapsed NaN signs and spelled -0.0 ambiguously."""

    def _specials(self):
        return np.array(
            [
                0.1,
                0.1 + 0.2,
                -0.0,
                0.0,
                float("inf"),
                float("-inf"),
                float("nan"),
                -float("nan"),
                5e-324,  # smallest subnormal
                1.7976931348623157e308,  # largest finite
                1 / 3,
            ],
            dtype=np.float64,
        )

    def test_string_roundtrip_is_bit_identical(self):
        f = Frame({"x": self._specials()})
        back = from_string(to_string(f))
        assert back["x"].dtype == np.float64
        assert np.array_equal(
            back["x"].view(np.uint64), f["x"].view(np.uint64)
        )

    def test_file_roundtrip_is_bit_identical(self, tmp_path):
        f = Frame({"x": self._specials()})
        p = tmp_path / "floats.psv"
        write_delimited(f, p)
        back = read_delimited(p)
        assert np.array_equal(
            back["x"].view(np.uint64), f["x"].view(np.uint64)
        )

    def test_nan_sign_preserved(self):
        from repro.frame.io import format_float

        assert format_float(float("nan")) == "nan"
        assert format_float(-float("nan")) == "-nan"
        assert np.signbit(float("-nan"))

    def test_negative_zero_distinguished(self):
        from repro.frame.io import format_float

        assert format_float(-0.0) == "-0.0"
        assert format_float(0.0) == "0.0"
