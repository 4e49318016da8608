"""Column-level helpers: coercion, kind predicates, factorization."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

#: numpy dtype kinds treated as string-valued columns.
_STRING_KINDS = frozenset("UO")
_INTEGER_KINDS = frozenset("iu")


def as_column(values: Sequence | np.ndarray, name: str = "<column>") -> np.ndarray:
    """Coerce *values* into a 1-D numpy array suitable for a frame column.

    Strings are stored as ``object`` arrays (no silent truncation the way
    fixed-width ``U`` dtypes truncate on assignment); numeric input keeps
    its dtype; bools stay bool. Raises ``TypeError`` for nested or
    multi-dimensional input.
    """
    if isinstance(values, np.ndarray):
        arr = values
    else:
        values = list(values)
        if values and isinstance(values[0], str):
            arr = np.array(values, dtype=object)
        else:
            arr = np.asarray(values)
    if arr.ndim != 1:
        raise TypeError(f"column {name!r} must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind == "U":
        # Normalize to object so later assignments cannot truncate.
        arr = arr.astype(object)
    if arr.dtype.kind == "O":
        bad = [v for v in arr[:100] if not isinstance(v, str) and v is not None]
        if bad:
            raise TypeError(
                f"column {name!r} has object dtype with non-string value "
                f"{bad[0]!r}; only str columns may use object dtype"
            )
    return arr


def is_string_kind(arr: np.ndarray) -> bool:
    """True if *arr* is a string-valued column."""
    return arr.dtype.kind in _STRING_KINDS


def factorize(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode *arr* as dense integer codes.

    Returns ``(codes, uniques)`` where ``uniques[codes] == arr`` and codes
    are int64 in ``[0, len(uniques))``, assigned in sorted-unique order.

    String (object) columns take a dict-based path: ``np.unique`` would
    comparison-sort all n object elements, while hashing assigns codes in
    O(n) and only the (few) distinct values need sorting before a dense
    remap. Same contract, ~5× cheaper on log-sized string columns.
    """
    if arr.dtype.kind == "O":
        table: dict = {}
        raw = np.fromiter(
            (table.setdefault(v, len(table)) for v in arr),
            dtype=np.int64,
            count=len(arr),
        )
        uniques = np.array(list(table), dtype=object)
        order = np.argsort(uniques)
        rank = np.empty(len(uniques), dtype=np.int64)
        rank[order] = np.arange(len(uniques), dtype=np.int64)
        return rank[raw], uniques[order]
    if arr.dtype.kind in _INTEGER_KINDS and len(arr):
        # one stable argsort + shifted comparison: equivalent to
        # np.unique(return_inverse=True) but without its hash overhead
        order = np.argsort(arr, kind="stable")
        in_order = arr[order]
        starts = np.ones(len(arr), dtype=bool)
        starts[1:] = in_order[1:] != in_order[:-1]
        group = np.cumsum(starts) - 1
        codes = np.empty(len(arr), dtype=np.int64)
        codes[order] = group
        return codes, in_order[starts]
    uniques, codes = np.unique(arr, return_inverse=True)
    return codes.astype(np.int64, copy=False), uniques


def shared_strings(cells: Sequence[str], table: dict | None = None) -> np.ndarray:
    """*cells* as an object column holding one ``str`` per distinct value.

    Each cell is looked up in *table* (a fresh dict when ``None``) and
    replaced by the first equal string the table saw, so equal cells
    share one object: a log column with a few thousand distinct values
    costs a pointer per row instead of a string per row. Pass the same
    table to several calls to share strings across them; the table
    grows by one entry per distinct value.
    """
    if table is None:
        table = {}
    return np.fromiter(map(table.setdefault, cells, cells), object, len(cells))


def first_occurrence_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first occurrence of each distinct value,
    in array order.

    The vectorized replacement for ``seen``-set loops: one stable
    argsort groups equal values, a shifted comparison finds group
    starts, and scattering those positions back yields the mask.
    """
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=bool)
    codes, _ = factorize(values)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    firsts = np.ones(n, dtype=bool)
    firsts[1:] = sorted_codes[1:] != sorted_codes[:-1]
    mask = np.zeros(n, dtype=bool)
    mask[order[firsts]] = True
    return mask


def segmented_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), ...`` — offsets within variable-size segments.

    The expansion step every windowed candidate join uses: ``repeat`` a
    per-segment base index and add these offsets to enumerate each
    segment's members without a Python loop.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def chain_collapse_mask(
    group_codes: np.ndarray, values: np.ndarray, threshold: float
) -> np.ndarray:
    """Boolean keep-mask of the chain-collapse filters, in array order.

    Within each group (rows sharing a ``group_codes`` value, ordered by
    ``values`` with the input order breaking ties stably), a row is kept
    iff it starts a new chain: it is the group's first row, or its value
    exceeds the *immediately preceding* row's value by more than
    ``threshold``. A gap of exactly ``threshold`` still suppresses
    (inclusive window), and a dropped row still extends the suppression
    window — the chain semantics of Liang et al.'s temporal filter.

    One grouped ``lexsort`` plus a shifted segment-boundary comparison
    replaces the per-group dict walk; the mask is scattered back to the
    original row order.
    """
    n = len(values)
    if len(group_codes) != n:
        raise ValueError("group_codes and values must share a length")
    if n == 0:
        return np.zeros(0, dtype=bool)
    if np.all(values[1:] >= values[:-1]):
        # already value-ordered (the filters sort by time first): one
        # stable sort on the codes yields exactly the lexsort order —
        # and narrow non-negative codes take numpy's radix path
        sort_key = group_codes
        if group_codes.dtype.kind in "iu":
            lo, hi = group_codes.min(), group_codes.max()
            if 0 <= lo and hi < np.iinfo(np.uint16).max:
                sort_key = group_codes.astype(np.uint16)
        order = np.argsort(sort_key, kind="stable")
    else:
        order = np.lexsort((values, group_codes))
    g = group_codes[order]
    v = values[order]
    keep = np.ones(n, dtype=bool)
    keep[1:] = (g[1:] != g[:-1]) | (v[1:] - v[:-1] > threshold)
    mask = np.empty(n, dtype=bool)
    mask[order] = keep
    return mask


def factorize_many(arrays: Iterable[np.ndarray]) -> tuple[np.ndarray, int]:
    """Encode the row-tuples of several equal-length arrays as group codes.

    Combines per-column codes with mixed-radix arithmetic so that two rows
    get the same code iff they agree on every key column. Returns
    ``(codes, n_groups)`` with codes dense in ``[0, n_groups)`` ordered by
    the lexicographic sorted order of the key tuples.
    """
    arrays = list(arrays)
    if not arrays:
        raise ValueError("factorize_many needs at least one key array")
    n = len(arrays[0])
    for a in arrays:
        if len(a) != n:
            raise ValueError("key arrays must share a length")
    combined = np.zeros(n, dtype=np.int64)
    for a in arrays:
        codes, uniques = factorize(a)
        k = len(uniques)
        if k == 0:
            return np.zeros(0, dtype=np.int64), 0
        if combined.max(initial=0) > 0 and k > 0:
            limit = np.iinfo(np.int64).max // max(k, 1)
            if combined.max() >= limit:
                raise OverflowError("too many distinct key combinations")
        combined = combined * k + codes
    dense, _ = factorize(combined)
    n_groups = int(dense.max()) + 1 if len(dense) else 0
    return dense, n_groups
