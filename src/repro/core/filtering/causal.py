"""Causality-related filtering (ref. [7], the authors' DSN'09 method).

Some fatal types habitually fire *because* another type just fired (a
kernel panic drags torus retransmission failures behind it). Such
follower events are not independent failures and should be filtered with
their trigger. The filter mines frequent (trigger → follower) pairs
from the event stream itself and removes follower events that appear
inside a trigger's window.

This module holds the **columnar kernel**: with events time-sorted, one
``searchsorted`` gives every event's window start, ``repeat`` +
:func:`repro.frame.column.segmented_arange` expand the windows into
(predecessor, event) candidate pairs, and the per-event *distinct
preceding type* sets of the mining step collapse to a ``np.unique`` over
composite ``event × type`` keys. Rule lookup during the drop phase is a
``searchsorted`` membership probe against the sorted rule keys. The
row-at-a-time original is kept with the tests
(``tests/core/filtering_reference.py``) and golden-tested for
bit-identical output (rules included). Candidate volume matches the
reference's work: both are linear in the number of (predecessor, event)
pairs inside the window, so dense storms cost both the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.events import FatalEventTable
from repro.frame.column import factorize, segmented_arange

#: largest dense key domain (bytes of scratch bool array) worth trading
#: for a sort: beyond this the scatter/flatnonzero dedupe falls back to
#: the sort-based helpers below.
_DENSE_KEY_LIMIT = 1 << 25


def _sorted_unique_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct int keys plus occurrence counts."""
    if not len(keys):
        return keys, np.zeros(0, dtype=np.int64)
    in_order = np.sort(keys)
    starts = np.ones(len(in_order), dtype=bool)
    starts[1:] = in_order[1:] != in_order[:-1]
    idx = np.flatnonzero(starts)
    counts = np.diff(np.append(idx, len(in_order)))
    return in_order[starts], counts


@dataclass(frozen=True)
class CausalRule:
    """A mined trigger → follower association."""

    trigger: str
    follower: str
    support: int
    confidence: float


@dataclass
class CausalityFilter:
    """Mines co-occurrence rules, then filters follower events.

    A pair (A → B) becomes a rule when B followed A within ``window``
    seconds at least ``min_support`` times, and that happened in at
    least ``min_confidence`` of all B occurrences.
    """

    window: float = 120.0
    min_support: int = 3
    min_confidence: float = 0.5
    rules: list[CausalRule] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError(
                f"window must be non-negative, got {self.window}"
            )

    def apply(self, events: FatalEventTable) -> FatalEventTable:
        """Learn rules on *events* and drop follower occurrences."""
        frame = events.frame.sort_by("event_time", "event_id")
        n = frame.num_rows
        if n == 0:
            self.rules = []
            return FatalEventTable(frame)
        times = frame["event_time"]
        codes, vocab = factorize(frame["errcode"])
        k = len(vocab)

        # windowed candidate join: predecessors of event j are the rows
        # in [lo[j], j) — times[i] >= t_j - window inclusive, as in the
        # reference's "while times[start] < t - window" scan
        lo = np.searchsorted(times, times - self.window, side="left")
        counts = np.arange(n, dtype=np.int64) - lo
        ev = np.repeat(np.arange(n, dtype=np.int64), counts)
        pred = np.repeat(lo, counts) + segmented_arange(counts)
        a = codes[pred]

        # distinct preceding types per event == unique (event, type) keys;
        # with a small key domain a scatter + flatnonzero beats sorting
        # the candidate list (flatnonzero yields the keys pre-sorted).
        # Same-type predecessors never form a rule: on the dense path
        # clearing each event's own-type slot replaces the mask over the
        # (much longer) candidate list.
        if n * k <= _DENSE_KEY_LIMIT:
            seen = np.zeros(n * k, dtype=bool)
            seen[ev * k + a] = True
            seen[np.arange(n, dtype=np.int64) * k + codes] = False
            ev_type = np.flatnonzero(seen)
        else:
            cross = a != codes[ev]
            cand = np.sort(ev[cross] * k + a[cross])
            starts = np.ones(len(cand), dtype=bool)
            starts[1:] = cand[1:] != cand[:-1]
            ev_type = cand[starts]
        pre_ev, pre_a = np.divmod(ev_type, k)

        # vocab codes are assigned in sorted order, so ascending
        # composite keys reproduce the reference's
        # sorted(pair_counts.items()) rule order
        cand_key = pre_a * k + codes[pre_ev]
        if k * k <= _DENSE_KEY_LIMIT:
            pair_hist = np.bincount(cand_key, minlength=k * k)
            pair_key = np.flatnonzero(pair_hist)
            support = pair_hist[pair_key]
        else:
            pair_key, support = _sorted_unique_counts(cand_key)
        confidence = support / np.bincount(codes, minlength=k)[pair_key % k]
        is_rule = (support >= self.min_support) & (
            confidence >= self.min_confidence
        )
        self.rules = [
            CausalRule(vocab[key // k], vocab[key % k], int(c), float(conf))
            for key, c, conf in zip(
                pair_key[is_rule], support[is_rule], confidence[is_rule]
            )
        ]

        # drop event j iff any distinct preceding type forms a rule with
        # its type: probe the sorted rule keys per (event, type) entry
        keep = np.ones(n, dtype=bool)
        rule_keys = pair_key[is_rule]
        if len(rule_keys) and len(cand_key):
            at = np.searchsorted(rule_keys, cand_key)
            at_c = np.minimum(at, len(rule_keys) - 1)
            hit = (at < len(rule_keys)) & (rule_keys[at_c] == cand_key)
            keep[pre_ev[hit]] = False
        return FatalEventTable(frame.filter(keep))
