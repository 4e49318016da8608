"""Incremental variants of the record-level filters.

The two chain-collapse filters are *prefix-decomposable*: by the chain
semantics of :func:`repro.frame.column.chain_collapse_mask`, whether an
event survives depends only on the time of the **immediately preceding
event of its group** (kept or dropped). Carrying one ``group → last
time`` mapping across increments therefore reproduces the batch
decision exactly: each increment prepends a synthetic predecessor row
per carried group, runs the unchanged batch kernel over the extended
arrays, and discards the synthetic mask entries.

The causality filter is **not** prefix-decomposable — its rules are
mined over the whole stream, so an early event's fate can hinge on
support that only accumulates later. :class:`CausalState` instead
accumulates exactly what the batch kernel derives per increment (the
distinct-preceding-type ``(event, type)`` entries, the per-type totals,
and a window-tail frontier of recent events) and defers the rule cut
and drop mask to :meth:`CausalState.finalize`, which reproduces the
batch rules and keep mask bit-for-bit. Downstream, the streaming
matcher runs over the causal filter's *input* (spatial survivors) and
the final results are restricted to causal survivors at result time —
see :mod:`repro.stream.matcher`.
"""

from __future__ import annotations

import numpy as np

from repro.core.filtering.causal import (
    CausalRule,
    _sorted_unique,
    causal_rule_cut,
)
from repro.frame.column import chain_collapse_mask, factorize, segmented_arange

__all__ = ["ChainState", "CausalState"]


class ChainState:
    """Carried chain-collapse state for one filter across increments.

    *key_columns* name the frame columns forming the chain group — the
    temporal filter chains per ``(errcode, location)``, the spatial
    filter per ``errcode``.
    """

    def __init__(self, key_columns: tuple[str, ...], threshold: float):
        if threshold < 0:
            raise ValueError(
                f"threshold must be non-negative, got {threshold}"
            )
        self.key_columns = tuple(key_columns)
        self.threshold = float(threshold)
        #: group key → time of the group's last event (kept or dropped)
        self.last: dict = {}

    def _keys(self, frame) -> np.ndarray:
        cols = [frame[c] for c in self.key_columns]
        if len(cols) == 1:
            return cols[0]
        n = frame.num_rows
        return np.fromiter(zip(*cols), dtype=object, count=n)

    def apply(self, frame) -> np.ndarray:
        """Keep-mask over *frame* (time-ordered chunk), updating state.

        Runs the batch kernel over the chunk extended with one synthetic
        predecessor per carried group present in it; chain decisions
        only look one row back within a group, so this is exactly the
        batch mask the full-trace run computes for these rows.
        """
        n = frame.num_rows
        if n == 0:
            return np.zeros(0, dtype=bool)
        times = frame["event_time"]
        keys = self._keys(frame)
        table: dict = {}
        codes = np.fromiter(
            (table.setdefault(k, len(table)) for k in keys),
            dtype=np.int64,
            count=n,
        )
        prev_codes = []
        prev_times = []
        for key, code in table.items():
            t_prev = self.last.get(key)
            if t_prev is not None:
                prev_codes.append(code)
                prev_times.append(t_prev)
        m = len(prev_codes)
        if m:
            all_codes = np.concatenate(
                [np.asarray(prev_codes, dtype=np.int64), codes]
            )
            all_times = np.concatenate(
                [np.asarray(prev_times, dtype=np.float64), times]
            )
            keep = chain_collapse_mask(all_codes, all_times, self.threshold)[m:]
        else:
            keep = chain_collapse_mask(codes, times, self.threshold)
        # new carry: each group's last event time in the chunk (later
        # rows overwrite earlier ones in the scatter)
        last_idx = np.zeros(len(table), dtype=np.int64)
        last_idx[codes] = np.arange(n, dtype=np.int64)
        for key, code in table.items():
            self.last[key] = float(times[last_idx[code]])
        return keep


class CausalState:
    """Accumulated causality-mining state with a window-tail frontier.

    Per increment, :meth:`update` extends the same quantities the batch
    kernel computes in one shot — distinct preceding-type entries per
    event (excluding the event's own type), per-type occurrence totals,
    and the vocabulary — joining new events against a frontier buffer
    of events within ``window`` seconds of the watermark so
    cross-increment predecessor pairs are not lost. Codes are assigned
    in first-appearance order while streaming and remapped to the batch
    kernel's sorted-vocabulary codes at :meth:`finalize`, which then
    reproduces its rule list and keep mask exactly.
    """

    def __init__(
        self, window: float, min_support: int, min_confidence: float
    ):
        if window < 0:
            raise ValueError(f"window must be non-negative, got {window}")
        self.window = float(window)
        self.min_support = int(min_support)
        self.min_confidence = float(min_confidence)
        self.vocab: dict[str, int] = {}  # errcode → first-appearance code
        self.type_counts: list[int] = []  # per first-appearance code
        #: accumulated distinct (event ordinal, preceding-type code)
        self._acc_ev: list[np.ndarray] = []
        self._acc_pred: list[np.ndarray] = []
        #: per-event own-type code, in stream order
        self._codes: list[np.ndarray] = []
        self.n_seen = 0
        self._tail_codes = np.zeros(0, dtype=np.int64)
        self._tail_times = np.zeros(0, dtype=np.float64)

    def update(
        self, errcodes: np.ndarray, times: np.ndarray, watermark: float
    ) -> None:
        """Fold one increment's (time-ordered) events into the state."""
        n = len(times)
        if n:
            codes = np.fromiter(
                (
                    self.vocab.setdefault(c, len(self.vocab))
                    for c in errcodes
                ),
                dtype=np.int64,
                count=n,
            )
            self.type_counts.extend(
                [0] * (len(self.vocab) - len(self.type_counts))
            )
            for code, cnt in zip(
                *np.unique(codes, return_counts=True)
            ):
                self.type_counts[code] += int(cnt)

            m = len(self._tail_times)
            all_codes = np.concatenate([self._tail_codes, codes])
            all_times = np.concatenate([self._tail_times, times])
            # predecessors of event j (at merged position m + j) are the
            # rows [lo, m + j): within `window` inclusive, strictly
            # before in (time, event_id) order — the batch join's exact
            # candidate set, with earlier increments supplied by the tail
            lo = np.searchsorted(all_times, times - self.window, side="left")
            counts = (m + np.arange(n, dtype=np.int64)) - lo
            ev = np.repeat(np.arange(n, dtype=np.int64), counts)
            pred = np.repeat(lo, counts) + segmented_arange(counts)
            a = all_codes[pred]
            cross = a != codes[ev]
            k_now = len(self.vocab)
            ev_type = _sorted_unique(ev[cross] * k_now + a[cross])
            u_ev, u_a = np.divmod(ev_type, k_now)
            self._acc_ev.append(self.n_seen + u_ev)
            self._acc_pred.append(u_a)
            self._codes.append(codes)
            self.n_seen += n
        else:
            all_codes = self._tail_codes
            all_times = self._tail_times
        keep = all_times >= watermark - self.window
        self._tail_codes = all_codes[keep]
        self._tail_times = all_times[keep]

    def finalize(self) -> tuple[np.ndarray, list[CausalRule]]:
        """The keep mask over every event seen, plus the mined rules.

        Bit-identical to ``CausalityFilter.apply`` over the concatenated
        stream: first-appearance codes are remapped to sorted-vocabulary
        codes, support/confidence use the same integer totals, and the
        rule list comes out in the same ascending composite-key order.
        """
        n = self.n_seen
        if n == 0:
            return np.ones(0, dtype=bool), []
        # the batch kernel's own coding: first-appearance code -> rank
        rank, vocab_sorted = factorize(
            np.array(list(self.vocab), dtype=object)
        )
        k = len(vocab_sorted)

        codes_all = rank[np.concatenate(self._codes)]
        type_counts = np.zeros(k, dtype=np.int64)
        type_counts[rank] = np.asarray(self.type_counts, dtype=np.int64)
        if self._acc_ev:
            pre_ev = np.concatenate(self._acc_ev)
            pre_a = rank[np.concatenate(self._acc_pred)]
        else:
            pre_ev = np.zeros(0, dtype=np.int64)
            pre_a = np.zeros(0, dtype=np.int64)
        return causal_rule_cut(
            pre_ev, pre_a, codes_all[pre_ev], type_counts, vocab_sorted, n,
            self.min_support, self.min_confidence,
        )
