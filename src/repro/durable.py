"""Durable writes and content hashes for everything ``repro`` persists.

The one module that decides how a file is replaced atomically and how
bytes are digested (DESIGN.md, "Durable writes and content hashes"):
the parse cache, the fleet store, streaming checkpoints, telemetry
manifests, benchmark trajectories and the health snapshot all go
through these two functions.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import BinaryIO, Callable

__all__ = ["atomic_write", "content_hash"]

_HASH_BLOCK = 1 << 20


def atomic_write(
    dest: str | Path, write: Callable[[BinaryIO], object]
) -> None:
    """Replace *dest* with the bytes ``write(fh)`` puts in a binary handle.

    The temp file sits in *dest*'s directory (so ``os.replace`` is one
    rename on one filesystem), is fsync'd before the rename and is
    removed if anything raises; a reader sees the old file or the new
    one, never a torn one. The directory is not fsync'd: after a power
    loss (not a process crash) the latest renames may be undone. The
    result gets the mode a plain ``open`` would give, ``0o666 & ~umask``.
    """
    dest = Path(dest)
    tmp = dest.with_name(f".{dest.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def content_hash(*parts: bytes | Path, digest_size: int = 20) -> str:
    """blake2b hex digest over *parts* in order.

    ``bytes`` parts are fed as they are; ``Path`` parts stream the
    file's bytes in 1 MiB blocks.
    """
    digest = hashlib.blake2b(digest_size=digest_size)
    for part in parts:
        if isinstance(part, bytes):
            digest.update(part)
            continue
        with open(part, "rb") as fh:
            while block := fh.read(_HASH_BLOCK):
                digest.update(block)
    return digest.hexdigest()
