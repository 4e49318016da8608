"""Per-chunk parse workers for the RAS process pool.

Each worker parses one line-aligned byte range of a RAS log with the
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

from repro.logs.quarantine import SAMPLE_WIDTH, DefectClass
from repro.parallel.chunking import split_chunk_lines

if TYPE_CHECKING:
    from repro.logs.stream import RasRows

__all__ = [
    "RasChunk",
    "parse_ras_chunk",
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
