"""The one on-disk frame format: a frame as a single ``.npz`` file.

The parse cache, the fleet store's shards and the streaming
checkpoint's buffered frames all persist through these two functions,
so every layer that writes a frame reads it back under the same checks.

Layout, per column ``j`` of the frame:

* numeric columns are stored raw as ``{j}.raw``;
* object (string) columns are dictionary-encoded as ``{j}.values`` (the
  sorted distinct values, pickled) plus ``{j}.codes`` (``int32``),
  encoded with :func:`repro.frame.column.factorize`. It round-trips
  bit-identically where fixed-width ``U`` storage would strip trailing
  NULs, and the pickle covers only the small distinct set.

The file does not name its columns; the caller keeps the *spec*
:func:`write_frame` returns — ``[name, "raw" | "dict", dtype]`` per
column, where the dtype lets a reader build a typed empty frame without
opening the file — in its own JSON index and passes it back to
:func:`read_frame`.

``np.savez`` stamps every zip member with the time it was written, so
two writes of the same frame differ in bytes. A digest of a frame file
is therefore only comparable to the index written alongside it, never
to a digest of another write of the same frame.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.durable import atomic_write
from repro.frame.column import factorize
from repro.frame.frame import Frame

__all__ = ["FrameFileError", "read_frame", "write_frame"]


class FrameFileError(ValueError):
    """A frame file that cannot be decoded into the frame its spec names."""


def write_frame(path: str | Path, frame: Frame) -> list[list[str]]:
    """Atomically write *frame* to *path*; returns its column spec."""
    arrays: dict[str, np.ndarray] = {}
    spec: list[list[str]] = []
    for j, name in enumerate(frame.columns):
        col = frame[name]
        if col.dtype == object:
            codes, values = factorize(col)
            arrays[f"{j}.values"] = values
            arrays[f"{j}.codes"] = codes.astype(np.int32)
            spec.append([name, "dict", "object"])
        else:
            arrays[f"{j}.raw"] = col
            spec.append([name, "raw", col.dtype.str])
    atomic_write(path, lambda fh: np.savez(fh, **arrays))
    return spec


def read_frame(path: str | Path, spec: list[list[str]]) -> Frame:
    """Decode the frame file at *path* that :func:`write_frame` described
    with *spec*.

    Raises :class:`FrameFileError` on any defect. A torn or damaged
    ``.npz`` can fail anywhere — zip central directory gone, a member
    cut short, pickled values garbled — and ``np.load`` surfaces that
    zoo as zipfile, OS, value or pickle errors, sometimes only when the
    member is read; all of it is one condition. The structural checks
    behind the decode catch the survivors that *do* unpickle: codes
    outside their dictionary (numpy would read ``values[-1]`` as the
    last value), raw columns of another dtype, columns that are not
    1-D or not all the same length.
    """
    try:
        data: dict[str, np.ndarray] = {}
        with np.load(path, allow_pickle=True) as npz:
            for j, (name, encoding, dtype) in enumerate(spec):
                if encoding == "dict":
                    values = npz[f"{j}.values"]
                    codes = npz[f"{j}.codes"]
                    if len(codes) and (
                        codes.min() < 0 or codes.max() >= len(values)
                    ):
                        raise FrameFileError(
                            f"column {name!r}: codes out of range"
                        )
                    column = values[codes]
                else:
                    column = npz[f"{j}.raw"]
                    if column.dtype != np.dtype(dtype):
                        raise FrameFileError(
                            f"column {name!r}: dtype {column.dtype} != {dtype}"
                        )
                data[name] = column
        # Frame rejects columns that are not 1-D or of unequal length
        return Frame(data)
    except FrameFileError as exc:
        raise FrameFileError(f"{path}: {exc}") from None
    except Exception as exc:  # noqa: BLE001 - the decode-failure zoo above
        raise FrameFileError(f"{path}: unreadable frame file: {exc}") from exc
