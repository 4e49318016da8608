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

Writes go through a temp file + ``os.replace`` (same discipline as the
cache) so a crashed writer never leaves a readable half-column; the
dataset manifest is written after every column file, json-last, so a
shard is visible only once complete.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.frame.frame import Frame
from repro.obs.metrics import get_metrics

__all__ = [
    "column_files",
    "decode_columns",
    "encode_frame",
    "shard_content_hash",
]

#: block size for content hashing (matches the parse cache)
_HASH_BLOCK = 1 << 20


def _write_atomic(dest: Path, array: np.ndarray) -> None:
    fd, tmp = tempfile.mkstemp(
        dir=dest.parent, prefix=dest.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, array, allow_pickle=True)
        os.replace(tmp, dest)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
            _write_atomic(directory / f"{j}.{name}.values.npy", values)
            _write_atomic(
                directory / f"{j}.{name}.codes.npy", codes.astype(np.int32)
            )
            columns.append([name, "dict", "object"])
        else:
            _write_atomic(directory / f"{j}.{name}.npy", col)
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
    """blake2b digest over the shard's column files, in column order."""
    directory = Path(directory)
    digest = hashlib.blake2b(digest_size=20)
    for file_name in column_files(columns):
        digest.update(file_name.encode("utf-8"))
        with open(directory / file_name, "rb") as fh:
            while True:
                block = fh.read(_HASH_BLOCK)
                if not block:
                    break
                digest.update(block)
    return digest.hexdigest()
