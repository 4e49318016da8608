"""The :class:`Frame` container: an ordered dict of equal-length columns."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.frame.column import as_column, is_string_kind


class Frame:
    """An immutable-by-convention columnar table.

    Columns are 1-D numpy arrays of equal length. Mutating operations
    return new frames; the underlying arrays are shared where safe
    (filter/take copy by construction, select and drop share).
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[str, Sequence | np.ndarray] | None = None):
        self._data: dict[str, np.ndarray] = {}
        if data:
            n = None
            for name, values in data.items():
                col = as_column(values, name)
                if n is None:
                    n = len(col)
                elif len(col) != n:
                    raise ValueError(
                        f"column {name!r} has length {len(col)}, expected {n}"
                    )
                self._data[name] = col

    # ------------------------------------------------------------------
    # basic introspection

    @property
    def columns(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._data)

    @property
    def num_rows(self) -> int:
        if not self._data:
            return 0
        return len(next(iter(self._data.values())))

    @property
    def num_columns(self) -> int:
        return len(self._data)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __repr__(self) -> str:
        cols = ", ".join(f"{k}:{v.dtype.kind}" for k, v in self._data.items())
        return f"Frame({self.num_rows} rows: {cols})"

    # ------------------------------------------------------------------
    # column / row access

    def col(self, name: str) -> np.ndarray:
        """The raw column array (shared, do not mutate)."""
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {self.columns}"
            ) from None

    def __getitem__(self, key):
        """``frame[str]`` → column array; ``frame[list[str]]`` → projected
        frame; ``frame[bool mask or int indices]`` → row subset."""
        if isinstance(key, str):
            return self.col(key)
        if isinstance(key, list) and all(isinstance(k, str) for k in key):
            return self.select(key)
        arr = np.asarray(key)
        if arr.dtype == bool:
            return self.filter(arr)
        return self.take(arr)

    def select(self, names: Sequence[str]) -> "Frame":
        """Project onto *names*, preserving the given order."""
        names = list(names)
        if names == self.columns:
            # full-column select in source order: nothing to rebuild, and
            # sharing is safe because frames are immutable-by-convention
            return self
        out = Frame()
        for name in names:
            out._data[name] = self.col(name)
        return out

    def row(self, i: int) -> dict[str, Any]:
        """Row *i* as a plain dict (scalars unboxed)."""
        return {k: v[i].item() if hasattr(v[i], "item") else v[i] for k, v in self._data.items()}

    def to_rows(self) -> Iterator[dict[str, Any]]:
        """Iterate rows as dicts (slow path; for io and tests)."""
        for i in range(self.num_rows):
            yield self.row(i)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Mapping[str, Any]],
        columns: Sequence[str] | None = None,
        dtypes: Mapping[str, Any] | None = None,
    ) -> "Frame":
        """Build a frame from an iterable of row dicts.

        All rows must supply every column. *columns* pins the order (and is
        required when *rows* is empty). *dtypes* maps column names to the
        dtype that column should carry whether or not rows are present:
        without a hint, empty columns default to float64 (object-dtype
        empties poison numeric ops and ``concat``) and all-null columns
        come out object. With a hint the column is built at that dtype —
        in particular a float hint turns ``None`` cells into NaN, so a
        merge over empty shards keeps its numeric columns numeric
        instead of drifting to object. An integer hint cannot represent
        null; ``None`` cells under one raise instead of silently
        promoting the column to float64.
        """
        rows = list(rows)
        dtypes = dtypes or {}
        if not rows:
            if columns is None:
                return cls()
            return cls(
                {c: np.array([], dtype=dtypes.get(c, np.float64)) for c in columns}
            )
        names = list(columns) if columns is not None else list(rows[0])
        data: dict[str, Any] = {}
        for name in names:
            values = [r[name] for r in rows]
            hint = dtypes.get(name)
            if hint is None:
                data[name] = values
                continue
            dtype = np.dtype(hint)
            if dtype.kind in "iu" and any(v is None for v in values):
                raise ValueError(
                    f"column {name!r} has null cells; {dtype} cannot hold "
                    "null — use a float dtype or fill the nulls"
                )
            # np.array(..., dtype=float) maps None -> NaN, which is the
            # null representation every numeric column here wants
            data[name] = np.array(values, dtype=dtype)
        return cls(data)

    # ------------------------------------------------------------------
    # construction of derived frames

    def with_column(self, name: str, values: Sequence | np.ndarray) -> "Frame":
        """A new frame with column *name* added or replaced."""
        col = as_column(values, name)
        if self._data and len(col) != self.num_rows:
            raise ValueError(
                f"column {name!r} has length {len(col)}, expected {self.num_rows}"
            )
        out = Frame()
        out._data = dict(self._data)
        out._data[name] = col
        return out

    def drop(self, *names: str) -> "Frame":
        """A new frame without the given columns."""
        missing = [n for n in names if n not in self._data]
        if missing:
            raise KeyError(f"cannot drop missing columns {missing}")
        out = Frame()
        out._data = {k: v for k, v in self._data.items() if k not in names}
        return out

    # ------------------------------------------------------------------
    # row operations

    def filter(self, mask: np.ndarray) -> "Frame":
        """Rows where boolean *mask* is True."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise TypeError("filter needs a boolean mask; use take for indices")
        if len(mask) != self.num_rows:
            raise ValueError(f"mask length {len(mask)} != {self.num_rows} rows")
        if mask.all():
            # all-True mask keeps every row: sharing the frame is safe
            # (immutable-by-convention) and skips a full-table copy
            return self
        out = Frame()
        out._data = {k: v[mask] for k, v in self._data.items()}
        return out

    def take(self, indices: np.ndarray) -> "Frame":
        """Rows at integer *indices* (with repetition allowed)."""
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            raise TypeError("take needs integer indices")
        out = Frame()
        out._data = {k: v[indices] for k, v in self._data.items()}
        return out

    def head(self, n: int = 5) -> "Frame":
        return self.take(np.arange(min(n, self.num_rows)))

    def sort_by(self, *keys: str, ascending: bool = True) -> "Frame":
        """Stable lexicographic sort by the given key columns.

        The first named key is the primary key (numpy's ``lexsort`` takes
        them reversed; we handle that here).
        """
        if not keys:
            raise ValueError("sort_by needs at least one key")
        arrays = [self.col(k) for k in reversed(keys)]
        order = np.lexsort(arrays)
        if not ascending:
            order = order[::-1]
        return self.take(order)

    # ------------------------------------------------------------------
    # column summaries

    def unique(self, name: str) -> np.ndarray:
        """Sorted distinct values of a column."""
        return np.unique(self.col(name))

    def nunique(self, name: str) -> int:
        """Number of distinct values of a column."""
        return len(self.unique(name))

    def value_counts(self, name: str) -> "Frame":
        """Distinct values with occurrence counts, most frequent first."""
        values, counts = np.unique(self.col(name), return_counts=True)
        order = np.argsort(counts, kind="stable")[::-1]
        return Frame({name: values[order], "count": counts[order]})

    # ------------------------------------------------------------------
    # convenience predicates

    def mask_eq(self, name: str, value: Any) -> np.ndarray:
        """Boolean mask of rows where column equals *value*."""
        return self.col(name) == value

    def mask_isin(self, name: str, values: Iterable[Any]) -> np.ndarray:
        """Boolean mask of rows where the column value is in *values*."""
        col = self.col(name)
        values = list(values)
        if not values:
            return np.zeros(self.num_rows, dtype=bool)
        if is_string_kind(col):
            vset = set(values)
            return np.fromiter(
                (v in vset for v in col), count=len(col), dtype=bool
            )
        return np.isin(col, np.asarray(values))


def concat(frames: Sequence[Frame]) -> Frame:
    """Stack frames row-wise. All frames must share the same column set."""
    frames = [f for f in frames if f.num_columns]
    if not frames:
        return Frame()
    names = frames[0].columns
    for f in frames[1:]:
        if set(f.columns) != set(names):
            raise ValueError(
                f"concat column mismatch: {names} vs {f.columns}"
            )
    out = Frame()
    for name in names:
        parts = [f.col(name) for f in frames]
        # Zero-length parts must not dictate the result dtype: an empty
        # placeholder column (object or float) would otherwise poison a
        # numeric column or widen ints to float.
        nonempty = [p for p in parts if len(p)]
        decisive = nonempty if nonempty else parts
        if any(p.dtype.kind == "O" for p in decisive):
            parts = [p.astype(object) for p in parts]
        elif nonempty:
            target = np.result_type(*[p.dtype for p in nonempty])
            parts = [p if len(p) else p.astype(target) for p in parts]
        out._data[name] = np.concatenate(parts)
    return out
