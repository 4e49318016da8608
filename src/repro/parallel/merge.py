"""Deterministic merge of per-chunk parse results.

The merge restores exactly the serial reader's observable behaviour
from chunk-local worker output, for every ingest policy:

* **global line numbers** — each chunk's local indices are offset by the
  cumulative line count of the chunks before it (the header is line 1,
  the first data line is line 2, as in the serial readers);
* **cross-record checks** — the duplicate-recid / out-of-order verdicts
  depend on which earlier rows were *accepted*, so they are replayed
  over the merged candidate stream. A vectorized fast path accepts
  everything when no recid repeats and times never decrease (the clean
  log case); otherwise a cursor loop re-runs the serial acceptance
  semantics from the first violation on. A candidate it rejects takes
  its quarantine sample from its own line, read back from its chunk's
  byte range, since workers ship no candidate text;
* **policy replay** — all defects (context-free ones from the workers
  plus cross-record ones from the replay) are routed through
  :func:`~repro.logs.quarantine.replay_defects` in global line order,
  with the report's running ``total_rows`` reconstructed at every step,
  so strict raises, quarantine samples, mid-stream ``max_bad_records``
  aborts and end-of-file ``max_bad_fraction`` checks all fire exactly
  where the serial parse would fire them.
"""

from __future__ import annotations

import numpy as np

from repro.frame.frame import Frame
from repro.frame.column import first_occurrence_mask
from repro.logs.quarantine import (
    SAMPLE_WIDTH,
    DefectClass,
    IngestPolicy,
    QuarantineReport,
    replay_defects,
)
from repro.parallel.workers import RasChunk, iter_line_batches

__all__ = [
    "RasRowCursor",
    "merge_ras_chunks",
    "replay_cross_record",
]

#: first data line of a file is physical line 2 (the header is line 1)
_FIRST_DATA_LINE = 2


class RasRowCursor:
    """The rows a pass has accepted so far, as the cross-record checks see them.

    The serial reader carries one across its batches so each batch's
    verdicts account for every earlier accepted row.
    """

    __slots__ = ("seen_recids", "max_recid", "max_time")

    def __init__(self) -> None:
        self.seen_recids: set[int] = set()
        self.max_recid: int | None = None
        self.max_time = float("-inf")

    def accept(self, recids: np.ndarray, times: np.ndarray) -> None:
        """Advance past accepted rows."""
        if not len(recids):
            return
        self.seen_recids.update(recids.tolist())
        top = int(recids.max())
        if self.max_recid is None or top > self.max_recid:
            self.max_recid = top
        self.max_time = max(self.max_time, float(times.max()))


def replay_cross_record(
    recids: np.ndarray,
    times: np.ndarray,
    cursor: RasRowCursor | None = None,
) -> tuple[np.ndarray, list[tuple[int, DefectClass]]]:
    """Serial acceptance verdicts for the merged candidate stream.

    Returns ``(accepted_mask, defects)`` where *defects* lists
    ``(candidate_index, defect)`` for rejected candidates. A row is a
    duplicate iff its recid was *accepted* earlier, out-of-order iff its
    time precedes the max *accepted* time, and rejected rows never
    advance the state. The duplicate check outranks the order check.
    With a *cursor*, rows it already accepted count as earlier and it
    is advanced past this stream's accepted rows; without one the
    stream is a whole file.
    """
    n = len(recids)
    accepted = np.ones(n, dtype=bool)
    if n == 0:
        return accepted, []
    state = cursor if cursor is not None else RasRowCursor()
    # fast path: no repeated recid and no time regression anywhere means
    # every row is accepted — and up to the first naive violation the
    # naive and serial states coincide, so the replay can start there
    dup_naive = ~first_occurrence_mask(recids)
    if state.max_recid is not None:
        # only a recid up to the largest accepted one can repeat one
        maybe = np.flatnonzero(recids <= state.max_recid)
        seen = state.seen_recids
        dup_naive[maybe] |= np.fromiter(
            (r in seen for r in recids[maybe].tolist()), bool, len(maybe)
        )
    prev_max = np.empty(n, dtype=np.float64)
    prev_max[0] = state.max_time
    np.maximum.accumulate(times[:-1], out=prev_max[1:])
    np.maximum(prev_max, state.max_time, out=prev_max)
    violation = dup_naive | (times < prev_max)
    if not violation.any():
        if cursor is not None:
            cursor.accept(recids, times)
        return accepted, []
    start = int(np.argmax(violation))
    state.accept(recids[:start], times[:start])
    seen = state.seen_recids
    max_time = state.max_time
    defects: list[tuple[int, DefectClass]] = []
    for i in range(start, n):
        recid = int(recids[i])
        event_time = float(times[i])
        if recid in seen:
            accepted[i] = False
            defects.append((i, DefectClass.DUPLICATE_RECID))
        elif event_time < max_time:
            accepted[i] = False
            defects.append((i, DefectClass.OUT_OF_ORDER_TIME))
        else:
            seen.add(recid)
            if event_time > max_time:
                max_time = event_time
    tail = accepted[start:]
    state.accept(recids[start:][tail], times[start:][tail])
    return accepted, defects


def _line_bases(chunk_lines: list[int]) -> list[int]:
    """Global line number of each chunk's first data line."""
    bases = []
    base = _FIRST_DATA_LINE
    for n in chunk_lines:
        bases.append(base)
        base += n
    return bases


def merge_ras_chunks(
    chunks: list[RasChunk],
    policy: IngestPolicy,
    report: QuarantineReport,
    path: str,
    bounds: list[tuple[int, int]],
) -> Frame:
    """Merge parsed RAS chunks into one disk-layout frame.

    *chunks* are the parses of the byte ranges *bounds* of *path*, in
    order. Output is bit-identical to the serial streaming parse: same
    row order, same dtypes, same quarantine report (or the same raise).
    Projected chunks give the FATAL frame of the serial
    ``fatal_only`` read.
    """
    from repro.logs.stream import RasRows

    bases = _line_bases([c.n_lines for c in chunks])
    total_lines = sum(c.n_lines for c in chunks)
    rows = RasRows.concat([c.cand for c in chunks])
    accepted, cross = replay_cross_record(rows.recids, rows.times)

    defects: list[tuple[int, DefectClass, str]] = []
    for base, chunk in zip(bases, chunks):
        defects.extend(
            (base + idx, defect, sample)
            for idx, defect, sample in chunk.defects
        )
    if cross:
        # a rejected candidate's sample is its line, read back from its
        # chunk's byte range
        owner = np.searchsorted(
            np.cumsum([len(c.cand) for c in chunks]),
            [i for i, _ in cross],
            side="right",
        ).tolist()
        local = [int(rows.lines[i]) for i, _ in cross]
        wanted: dict[int, list[int]] = {}
        for k, j in zip(owner, local):
            wanted.setdefault(k, []).append(j)
        samples = {
            k: _line_samples(path, *bounds[k], js)
            for k, js in wanted.items()
        }
        defects.extend(
            (bases[k] + j, defect, samples[k][j])
            for (_, defect), k, j in zip(cross, owner, local)
        )
        defects.sort(key=lambda d: d[0])
    replay_defects(policy, report, defects, total_lines)
    report.note_clean_times(rows.times[accepted])
    return rows.take(accepted).to_frame()


def _line_samples(
    path: str, start: int, end: int, wanted: list[int]
) -> dict[int, str]:
    """Quarantine samples of lines *wanted* (indices within the byte
    range ``[start, end)`` of *path*), read back one batch at a time."""
    want = np.unique(wanted)
    samples: dict[int, str] = {}
    base = 0
    for lines in iter_line_batches(path, start, end):
        lo, hi = np.searchsorted(want, [base, base + len(lines)])
        for j in want[lo:hi].tolist():
            samples[j] = lines[j - base][:SAMPLE_WIDTH]
        base += len(lines)
    return samples
