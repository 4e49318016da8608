"""Byte-offset chunk planning: line alignment, coverage, decoding, and
the line-aligned batches a worker reads its range in."""

import random
from itertools import islice

import pytest

from repro.parallel.chunking import plan_chunks, scan_header, split_chunk_lines
from repro.parallel.workers import iter_line_batches


def write_bytes(tmp_path, data: bytes, name="f.log"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


class TestScanHeader:
    def test_plain_newline(self, tmp_path):
        p = write_bytes(tmp_path, b"a:int|b:str\nrow1\nrow2\n")
        assert scan_header(p) == ("a:int|b:str", 12)

    def test_crlf(self, tmp_path):
        p = write_bytes(tmp_path, b"a:int\r\nrow\r\n")
        assert scan_header(p) == ("a:int", 7)

    def test_lone_cr(self, tmp_path):
        p = write_bytes(tmp_path, b"a:int\rrow\r")
        assert scan_header(p) == ("a:int", 6)

    def test_bom_absorbed(self, tmp_path):
        p = write_bytes(tmp_path, b"\xef\xbb\xbfa:int\nrow\n")
        header, start = scan_header(p)
        assert header == "a:int"
        assert start == len(b"\xef\xbb\xbfa:int\n")

    def test_empty_file(self, tmp_path):
        p = write_bytes(tmp_path, b"")
        assert scan_header(p) == ("", 0)

    def test_header_without_terminator(self, tmp_path):
        p = write_bytes(tmp_path, b"a:int|b:str")
        assert scan_header(p) == ("a:int|b:str", 11)

    def test_undecodable_header_is_replaced_not_fatal(self, tmp_path):
        p = write_bytes(tmp_path, b"a\xff:int\nrow\n")
        header, _ = scan_header(p)
        assert "�" in header


class TestPlanChunks:
    def lines_file(self, tmp_path, n_lines, width=20):
        body = b"".join(
            (f"{i:0{width - 1}d}".encode() + b"\n") for i in range(n_lines)
        )
        return write_bytes(tmp_path, b"h:int\n" + body), 6

    def test_exact_cover_no_gaps(self, tmp_path):
        p, start = self.lines_file(tmp_path, 100)
        chunks = plan_chunks(p, 4, start)
        assert chunks[0][0] == start
        assert chunks[-1][1] == p.stat().st_size
        for (_, e1), (s2, _) in zip(chunks, chunks[1:]):
            assert e1 == s2

    def test_boundaries_line_aligned(self, tmp_path):
        p, start = self.lines_file(tmp_path, 100)
        raw = p.read_bytes()
        for _, end in plan_chunks(p, 4, start)[:-1]:
            assert raw[end - 1 : end] == b"\n"

    def test_chunks_concatenate_to_all_lines(self, tmp_path):
        p, start = self.lines_file(tmp_path, 37)
        raw = p.read_bytes()
        got = []
        for s, e in plan_chunks(p, 5, start):
            got.extend(split_chunk_lines(raw[s:e]))
        assert got == [f"{i:019d}" for i in range(37)]

    def test_more_chunks_than_lines(self, tmp_path):
        p, start = self.lines_file(tmp_path, 2)
        chunks = plan_chunks(p, 16, start)
        assert 1 <= len(chunks) <= 2
        assert chunks[0][0] == start and chunks[-1][1] == p.stat().st_size

    def test_empty_data_region(self, tmp_path):
        p = write_bytes(tmp_path, b"h:int\n")
        assert plan_chunks(p, 4, 6) == []

    def test_single_chunk(self, tmp_path):
        p, start = self.lines_file(tmp_path, 10)
        assert plan_chunks(p, 1, start) == [(start, p.stat().st_size)]

    def test_rejects_nonpositive(self, tmp_path):
        p, start = self.lines_file(tmp_path, 10)
        with pytest.raises(ValueError, match="num_chunks"):
            plan_chunks(p, 0, start)


class TestSplitChunkLines:
    def test_universal_newlines(self):
        assert split_chunk_lines(b"a\r\nb\rc\nd") == ["a", "b", "c", "d"]

    def test_trailing_terminator_drops_phantom_line(self):
        assert split_chunk_lines(b"a\nb\n") == ["a", "b"]

    def test_empty(self):
        assert split_chunk_lines(b"") == []

    def test_bad_utf8_becomes_replacement(self):
        (line,) = split_chunk_lines(b"bad\xffcell\n")
        assert "�" in line

    def test_multibyte_utf8_survives(self):
        assert split_chunk_lines("héllo\nwörld\n".encode()) == [
            "héllo",
            "wörld",
        ]


class TestLineBatches:
    """A worker reads its range in line-aligned batches of ~1 MB."""

    @pytest.fixture(scope="class")
    def mixed(self, tmp_path_factory):
        # 2.7 MB of lines with every terminator, multi-byte characters
        # and a bad byte, so batch cuts land next to each of them
        rng = random.Random(7)
        parts = []
        for i in range(120_000):
            body = "x" * rng.randrange(40) + rng.choice(["", "é", "中", "�"])
            parts.append(body.encode() + rng.choice([b"\n", b"\r\n", b"\r"]))
            if i % 997 == 0:
                parts.append(b"bad\xff\n")
        path = tmp_path_factory.mktemp("batches") / "mixed.log"
        path.write_bytes(b"".join(parts))
        return path

    @pytest.mark.parametrize("span", [(0, None), (1, -1), (4_000, 2_000_003)])
    def test_batches_concatenate_to_the_range_lines(self, mixed, span):
        raw = mixed.read_bytes()
        start, end = span
        end = len(raw) + end if end is not None and end < 0 else end
        end = len(raw) if end is None else end
        batches = list(iter_line_batches(str(mixed), start, end))
        assert len(batches) > 1
        assert [line for b in batches for line in b] == split_chunk_lines(
            raw[start:end]
        )

    def test_empty_range_is_one_empty_batch(self, mixed):
        assert list(iter_line_batches(str(mixed), 10, 10)) == [[]]

    def test_range_past_eof_ends(self, mixed):
        # a file that shrank after the chunks were planned ends the read
        size = mixed.stat().st_size
        batches = list(islice(iter_line_batches(str(mixed), 0, size + 9), 50))
        assert len(batches) < 50
        assert [line for b in batches for line in b] == split_chunk_lines(
            mixed.read_bytes()
        )
