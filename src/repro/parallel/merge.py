"""Deterministic merge of per-chunk parse results.

A file is read as one or more chunks (one in-process chunk at
``workers=1``), and the merge gives their output exactly the observable
behaviour of one line-by-line pass over the file, for every ingest
policy:

* **global line numbers** — each chunk's local indices are offset by the
  cumulative line count of the chunks before it (the header is line 1,
  the first data line is line 2);
* **cross-record checks** — the duplicate-recid / out-of-order verdicts
  depend on which earlier rows were *accepted*, so they are replayed
  once over the merged candidate stream. A vectorized fast path accepts
  everything when no recid repeats and times never decrease (the clean
  log case); otherwise a loop re-runs the line-by-line acceptance from
  the first violation on. A candidate it rejects takes its quarantine
  sample from its own line, read back from its chunk's byte range,
  since workers ship no candidate text. FATAL-only first-pass chunks
  skip the replay: when their summaries show every candidate in order
  (:func:`chunks_in_order`), every candidate is accepted;
* **policy replay** — all defects (context-free ones from the workers
  plus cross-record ones from the replay) are routed through
  :func:`~repro.logs.quarantine.replay_defects` in global line order,
  with the report's running ``total_rows`` reconstructed at every step,
  so strict raises, quarantine samples, mid-stream ``max_bad_records``
  aborts and end-of-file ``max_bad_fraction`` checks all fire exactly
  where a line-by-line pass would fire them.
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
from repro.parallel.workers import ParsedRange, RasChunk, iter_line_batches

__all__ = [
    "chunks_in_order",
    "file_defects",
    "merge_ras_chunks",
    "replay_cross_record",
]

#: first data line of a file is physical line 2 (the header is line 1)
_FIRST_DATA_LINE = 2


def replay_cross_record(
    recids: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, DefectClass]]]:
    """Serial acceptance verdicts for a file's candidate stream.

    Returns ``(accepted_mask, defects)`` where *defects* lists
    ``(candidate_index, defect)`` for rejected candidates. A row is a
    duplicate iff its recid was *accepted* earlier, out-of-order iff its
    time precedes the max *accepted* time, and rejected rows never
    advance the state. The duplicate check outranks the order check.
    """
    n = len(recids)
    accepted = np.ones(n, dtype=bool)
    if n == 0:
        return accepted, []
    # fast path: no repeated recid and no time regression anywhere means
    # every row is accepted — and up to the first naive violation the
    # naive and serial states coincide, so the replay can start there
    prev_max = np.empty(n, dtype=np.float64)
    prev_max[0] = -np.inf
    np.maximum.accumulate(times[:-1], out=prev_max[1:])
    violation = times < prev_max
    del prev_max
    if not (recids[1:] > recids[:-1]).all():
        # strictly increasing recids cannot repeat; others may
        violation |= ~first_occurrence_mask(recids)
    if not violation.any():
        return accepted, []
    start = int(np.argmax(violation))
    seen = set(recids[:start].tolist())
    max_time = float(times[:start].max()) if start else float("-inf")
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
    return accepted, defects


def chunks_in_order(chunks: list[RasChunk]) -> bool:
    """Whether FATAL-only first-pass *chunks* hold their candidates in
    order: each chunk ``ordered``, and each non-empty one's first recid
    above, and first time not below, the last recid and max time of the
    non-empty chunk before it. Such candidates are all accepted: none
    repeats a recid or falls behind an earlier time."""
    prev = None
    for chunk in chunks:
        if not chunk.ordered:
            return False
        if not chunk.n_cand:
            continue
        if prev is not None and (
            chunk.first_recid <= prev.last_recid
            or chunk.first_time < prev.max_time
        ):
            return False
        prev = chunk
    return True


def file_defects(
    chunks: list[ParsedRange],
) -> tuple[list[int], list[tuple[int, DefectClass, str]]]:
    """The file line number of each chunk's first data line, and every
    chunk's defects renumbered as file lines, in order."""
    bases = []
    base = _FIRST_DATA_LINE
    for chunk in chunks:
        bases.append(base)
        base += chunk.n_lines
    defects = [
        (b + idx, defect, sample)
        for b, chunk in zip(bases, chunks)
        for idx, defect, sample in chunk.defects
    ]
    return bases, defects


def merge_ras_chunks(
    chunks: list[RasChunk],
    policy: IngestPolicy,
    report: QuarantineReport,
    path: str,
    bounds: list[tuple[int, int]],
) -> Frame:
    """Merge parsed RAS chunks into one disk-layout frame.

    *chunks* are the parses of the byte ranges *bounds* of *path*, in
    order. Output is bit-identical to a line-by-line parse: same row
    order, same dtypes, same quarantine report (or the same raise).
    Projected chunks give that parse's FATAL rows. FATAL-only
    first-pass chunks are merged only when they pass
    :func:`chunks_in_order`; others need a second pass.
    """
    from repro.logs.stream import RasRows

    bases, defects = file_defects(chunks)
    total_lines = sum(c.n_lines for c in chunks)
    rows = RasRows.concat([c.cand for c in chunks])
    if chunks_in_order(chunks):
        # every candidate is accepted; rows holds the FATAL ones
        replay_defects(policy, report, defects, total_lines)
        spans = [(c.first_time, c.max_time) for c in chunks if c.n_cand]
        if spans:
            report.note_clean_times((spans[0][0], spans[-1][1]))
        return rows.to_frame()

    accepted, cross = replay_cross_record(rows.recids, rows.times)
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
    if cross:
        rows = rows.take(accepted)
    report.note_clean_times(rows.times)
    return rows.to_frame()


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
