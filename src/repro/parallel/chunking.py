"""Byte-offset chunking of delimited log files for the chunk reader.

A chunk is a half-open byte range ``[start, end)`` of the file's data
region (everything after the header line). Boundaries are aligned to
line breaks — a candidate split point is advanced to just past the next
``\\n`` byte — so no line ever straddles two chunks. That alignment is
UTF-8 safe: ``0x0A`` can never appear inside a multi-byte sequence
(continuation bytes are ``0x80``–``0xBF``), so per-chunk decoding sees
exactly the same replacement characters a whole-file decode would.

Decoded chunk text is split with the universal-newline rules of
text-mode iteration (``\\r\\n``, lone ``\\r`` and ``\\n`` all
terminate a line), so per-chunk line streams concatenate to exactly the
line stream of a text-mode read of the whole file.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO

__all__ = ["scan_header", "plan_chunks", "split_chunk_lines"]

#: UTF-8 encoding of the byte-order mark ``utf-8-sig`` tolerates
_BOM_BYTES = b"\xef\xbb\xbf"

#: read granularity while scanning for a line boundary
_SCAN_BLOCK = 1 << 16


def scan_header(path: str | Path) -> tuple[str, int]:
    """The header line's text and the byte offset of the data region.

    Mirrors a text-mode read: a leading UTF-8 BOM is absorbed, the
    header terminator may be ``\\n``, ``\\r\\n`` or a lone ``\\r``, and
    undecodable bytes decode to replacement characters instead of
    raising. Returns ``("", offset)`` for an empty or blank first line.
    """
    with open(path, "rb") as fh:
        buf = b""
        while True:
            block = fh.read(_SCAN_BLOCK)
            if not block:
                break
            buf += block
            if b"\n" in block or b"\r" in block:
                break
        start = len(_BOM_BYTES) if buf.startswith(_BOM_BYTES) else 0
        nl = _find_line_break(buf, start)
        if nl is None:
            return buf[start:].decode("utf-8", errors="replace"), len(buf)
        brk, width = nl
        return (
            buf[start:brk].decode("utf-8", errors="replace"),
            brk + width,
        )


def _find_line_break(buf: bytes, start: int) -> tuple[int, int] | None:
    """Position and width of the first line terminator at/after *start*."""
    for i in range(start, len(buf)):
        b = buf[i]
        if b == 0x0A:
            return i, 1
        if b == 0x0D:
            if i + 1 < len(buf) and buf[i + 1] == 0x0A:
                return i, 2
            return i, 1
    return None


def plan_chunks(
    path: str | Path, num_chunks: int, data_start: int
) -> list[tuple[int, int]]:
    """Split the data region into up to *num_chunks* line-aligned ranges.

    Ranges cover ``[data_start, file_size)`` exactly, without gaps or
    overlap, each ending just past a ``\\n`` byte (except the final one,
    which ends at EOF). Fewer ranges come back when the file has fewer
    line breaks than requested splits. An empty data region yields no
    chunks.
    """
    if num_chunks < 1:
        raise ValueError("num_chunks must be positive")
    size = os.path.getsize(path)
    if data_start >= size:
        return []
    span = size - data_start
    bounds = [data_start]
    with open(path, "rb") as fh:
        for i in range(1, num_chunks):
            target = data_start + (span * i) // num_chunks
            if target <= bounds[-1]:
                continue
            cut = _next_line_start(fh, target, size)
            if bounds[-1] < cut < size:
                bounds.append(cut)
    bounds.append(size)
    return list(zip(bounds[:-1], bounds[1:]))


def _next_line_start(fh: IO[bytes], target: int, size: int) -> int:
    """The offset just past the first ``\\n`` at/after *target*."""
    fh.seek(target)
    offset = target
    while offset < size:
        block = fh.read(_SCAN_BLOCK)
        if not block:
            break
        i = block.find(b"\n")
        if i >= 0:
            return offset + i + 1
        offset += len(block)
    return size


def split_chunk_lines(raw: bytes) -> list[str]:
    """Decode one chunk and split it into lines, as a text-mode read would.

    Applies the tolerant decode (``errors="replace"``) and universal
    newline translation of text mode, then drops the empty
    tail piece a terminating line break leaves behind — text-mode
    iteration never yields a phantom final line either.
    """
    text = raw.decode("utf-8", errors="replace")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines
