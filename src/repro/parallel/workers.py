"""Per-chunk parse workers for the multiprocessing pool.

Each worker parses one line-aligned byte range of a log file with the
**context-free** subset of the validating parsers — structure, typed
cells, vocabulary — exactly as the serial readers would. Cross-record
state (duplicate recids, time ordering) cannot be decided inside a
chunk, so workers return *candidate* rows plus per-line defects in
chunk-local coordinates; :mod:`repro.parallel.merge` replays the
cross-record checks and the ingest policy over the merged stream.

Worker functions take a single picklable task tuple so they can be
dispatched with ``Pool.map`` under any start method.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter, process_time
from typing import TYPE_CHECKING

import numpy as np

from repro.logs.quarantine import SAMPLE_WIDTH, DefectClass
from repro.parallel.chunking import split_chunk_lines

if TYPE_CHECKING:
    from repro.logs.stream import RasRows

__all__ = [
    "RasChunk",
    "DelimChunk",
    "parse_ras_chunk",
    "parse_delim_chunk",
]


@dataclass
class RasChunk:
    """One parsed RAS chunk, in chunk-local coordinates.

    ``defects`` carries context-free bad lines as ``(local_line_index,
    defect, sample)``; ``cand`` holds the field-valid rows that still
    await the merge-time duplicate/ordering verdict. A candidate the
    merge rejects needs its original line for the quarantine report:
    for a line without escapes that is its cells joined by the
    separator, so ``cand_samples`` ships the truncated text of only the
    escaped candidates, keyed by candidate index.
    """

    n_lines: int
    defects: list[tuple[int, DefectClass, str]]
    cand: RasRows
    cand_samples: dict[int, str]
    # worker-side telemetry: the parent process cannot observe a fork
    # worker's clocks, so each chunk ships its own measurements home
    # and the parent re-attaches them as child spans / counters
    wall_s: float = 0.0
    cpu_s: float = 0.0
    n_bytes: int = 0


@dataclass
class DelimChunk:
    """One parsed generic-delimited chunk (typed arrays, local defects)."""

    n_lines: int
    defects: list[tuple[int, DefectClass, str]]
    arrays: list[np.ndarray]  # typed per-column arrays, header order
    # worker-side telemetry (see RasChunk)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    n_bytes: int = 0


def parse_ras_chunk(task: tuple[str, int, int]) -> RasChunk:
    """Parse one RAS data chunk: ``(path, start, end)`` byte range."""
    from repro.logs.stream import parse_ras_block

    path, start, end = task
    t0, c0 = perf_counter(), process_time()
    with open(path, "rb") as fh:
        fh.seek(start)
        raw = fh.read(end - start)
    lines = split_chunk_lines(raw)
    defects, cand = parse_ras_block(lines)
    return RasChunk(
        n_lines=len(lines),
        defects=[(i, d, lines[i][:SAMPLE_WIDTH]) for i, d in defects],
        cand=cand,
        cand_samples={
            k: lines[i][:SAMPLE_WIDTH]
            for k, i in enumerate(cand.lines.tolist())
            if "\\" in lines[i]
        },
        wall_s=perf_counter() - t0,
        cpu_s=process_time() - c0,
        n_bytes=end - start,
    )


def parse_delim_chunk(
    task: tuple[str, int, int, str, tuple[str, ...], tuple[str, ...]]
) -> DelimChunk:
    """Parse one generic delimited chunk under the typed header schema.

    ``task`` is ``(path, start, end, sep, names, tags)``. All checks
    here are context-free (structure + typed cells), so the chunk's
    typed arrays are final — the merge only replays the policy over the
    defect stream and concatenates.
    """
    from repro.frame.io import _PARSERS, unescape_cell
    from repro.logs.quarantine import structural_defect, typed_cell_defect

    path, start, end, sep, names, tags = task
    t0, c0 = perf_counter(), process_time()
    with open(path, "rb") as fh:
        fh.seek(start)
        raw = fh.read(end - start)
    lines = split_chunk_lines(raw)

    defects: list[tuple[int, DefectClass, str]] = []
    raw_cols: list[list[str]] = [[] for _ in names]
    for i, text in enumerate(lines):
        parts = text.split(sep)
        defect = structural_defect(text, len(parts), len(names))
        if defect is None:
            for value, tag in zip(parts, tags):
                defect = typed_cell_defect(value, tag)
                if defect is not None:
                    break
        if defect is not None:
            defects.append((i, defect, text[:SAMPLE_WIDTH]))
            continue
        for col, value in zip(raw_cols, parts):
            col.append(value)
    arrays = []
    for tag, col in zip(tags, raw_cols):
        if tag == "str":
            col = [unescape_cell(v, sep) for v in col]
        arrays.append(_PARSERS[tag](col))
    return DelimChunk(
        n_lines=len(lines),
        defects=defects,
        arrays=arrays,
        wall_s=perf_counter() - t0,
        cpu_s=process_time() - c0,
        n_bytes=end - start,
    )
