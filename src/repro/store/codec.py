"""Column files for one shard directory.

A shard holds one frame as one file per column, so a scan can load (and
a narrow projection could skip) columns independently:

* numeric columns are written raw as ``<j>.<name>.npy`` and read back
  with ``np.load(mmap_mode="r")`` — the bytes stay on disk until a
  kernel touches them;
* object (string) columns are dictionary-encoded as
  ``<j>.<name>.values.npy`` (pickled uniques) plus
  ``<j>.<name>.codes.npy`` (``int32`` codes), the parse cache's proven
  encoding: it round-trips bit-identically where fixed-width ``U``
  storage would strip trailing NULs, and the pickle covers only the
  small unique set.

Column files are written with :func:`repro.durable.atomic_write`; the
dataset manifest is written after every column file, json-last, so a
shard is visible only once complete.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.durable import atomic_write, content_hash
from repro.frame.frame import Frame
from repro.obs.metrics import get_metrics

__all__ = [
    "column_files",
    "decode_columns",
    "encode_frame",
    "shard_content_hash",
]

def _save(dest: Path, array: np.ndarray) -> None:
    atomic_write(dest, lambda fh: np.save(fh, array, allow_pickle=True))


def column_files(columns: list[list[str]]) -> list[str]:
    """The file names one shard's *columns* spec maps to, in hash order."""
    names = []
    for j, (name, encoding, _dtype) in enumerate(columns):
        if encoding == "dict":
            names.append(f"{j}.{name}.values.npy")
            names.append(f"{j}.{name}.codes.npy")
        else:
            names.append(f"{j}.{name}.npy")
    return names


def encode_frame(frame: Frame, directory: str | Path) -> list[list[str]]:
    """Write *frame* into *directory* as column files.

    Returns the ``[name, encoding, dtype]`` column spec the manifest
    records — the decode side trusts the manifest, never directory
    listings, and the dtype lets an all-pruned scan synthesize a typed
    empty frame without opening anything.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    columns: list[list[str]] = []
    for j, name in enumerate(frame.columns):
        col = frame[name]
        if col.dtype == object:
            values, codes = np.unique(col, return_inverse=True)
            _save(directory / f"{j}.{name}.values.npy", values)
            _save(
                directory / f"{j}.{name}.codes.npy", codes.astype(np.int32)
            )
            columns.append([name, "dict", "object"])
        else:
            _save(directory / f"{j}.{name}.npy", col)
            columns.append([name, "raw", col.dtype.str])
    return columns


def decode_columns(
    directory: str | Path,
    columns: list[list[str]],
    mmap: bool = True,
) -> dict[str, np.ndarray]:
    """Load the column files a manifest *columns* spec describes.

    Raw numeric columns come back memory-mapped read-only when *mmap*
    is on — the scan concatenation materializes them lazily. Dict
    columns must decode eagerly (the values array is pickled).
    Each load increments ``store.shard.column_loads`` so tests can
    prove pruned shards were never touched.
    """
    directory = Path(directory)
    metrics = get_metrics()
    data: dict[str, np.ndarray] = {}
    for j, (name, encoding, _dtype) in enumerate(columns):
        if encoding == "dict":
            values = np.load(
                directory / f"{j}.{name}.values.npy", allow_pickle=True
            )
            codes = np.load(directory / f"{j}.{name}.codes.npy")
            data[name] = values[codes]
            metrics.counter("store.shard.column_loads", mode="memory").inc()
        else:
            data[name] = np.load(
                directory / f"{j}.{name}.npy",
                mmap_mode="r" if mmap else None,
            )
            metrics.counter(
                "store.shard.column_loads",
                mode="mmap" if mmap else "memory",
            ).inc()
    return data


def shard_content_hash(
    directory: str | Path, columns: list[list[str]]
) -> str:
    """blake2b digest over the shard's column files, in column order:
    each file's name, then its bytes."""
    directory = Path(directory)
    parts: list[bytes | Path] = []
    for file_name in column_files(columns):
        parts += [file_name.encode("utf-8"), directory / file_name]
    return content_hash(*parts)
