"""The dataset index: one JSON manifest describing every shard.

The manifest is the store's single source of truth — scans never list
directories. It records the store schema version, every shard's
``(machine, table, window)`` key, row count, time range, column spec
and content hash. It is written with :func:`repro.durable.atomic_write`
**after** all shard files, so a reader either sees a complete
consistent dataset or the previous one; a crashed writer leaves at
worst orphaned shard files the next manifest write supersedes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.durable import atomic_write, content_hash

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ShardInfo",
    "StoreManifest",
    "read_store_manifest",
    "validate_store_manifest",
    "write_store_manifest",
]

#: bump whenever the shard layout or manifest fields change
STORE_SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"


class StoreError(RuntimeError):
    """A structural defect in a store: bad manifest, missing shard."""


@dataclass(frozen=True)
class ShardInfo:
    """One shard's index entry."""

    machine: str
    table: str  # "ras" | "job"
    window: int  # 0-based time-window ordinal within the machine
    path: str  # shard frame file, relative to the store root
    rows: int
    #: min/max of the shard's partition time column over its rows
    #: (``event_time`` for ras, ``start_time`` for job); NaN when empty
    time_min: float
    time_max: float
    columns: list[list[str]]  # the shard file's repro.frame.npz spec
    content_hash: str  # of the shard file

    def overlaps(self, t0: float, t1: float) -> bool:
        """Whether any row's partition time can fall in ``[t0, t1)``.

        Empty shards never overlap — there is nothing to scan.
        """
        if self.rows == 0:
            return False
        return self.time_min < t1 and self.time_max >= t0

    def as_record(self) -> dict:
        return {
            "machine": self.machine,
            "table": self.table,
            "window": self.window,
            "path": self.path,
            "rows": self.rows,
            "time_min": self.time_min,
            "time_max": self.time_max,
            "columns": [list(c) for c in self.columns],
            "content_hash": self.content_hash,
        }

    @classmethod
    def from_record(cls, record: dict) -> "ShardInfo":
        return cls(
            machine=str(record["machine"]),
            table=str(record["table"]),
            window=int(record["window"]),
            path=str(record["path"]),
            rows=int(record["rows"]),
            time_min=float(record["time_min"]),
            time_max=float(record["time_max"]),
            columns=[[str(x) for x in c] for c in record["columns"]],
            content_hash=str(record["content_hash"]),
        )


@dataclass
class StoreManifest:
    """The full index: schema version plus every shard, in key order."""

    version: int = STORE_SCHEMA_VERSION
    shards: list[ShardInfo] = field(default_factory=list)

    def machines(self) -> list[str]:
        """Machine names present, in first-appearance order."""
        seen: dict[str, None] = {}
        for shard in self.shards:
            seen.setdefault(shard.machine, None)
        return list(seen)

    def select(
        self, machine: str | None = None, table: str | None = None
    ) -> list[ShardInfo]:
        """Shards matching the key filters, in (machine, table, window)
        order — the order scans reassemble in."""
        out = [
            s
            for s in self.shards
            if (machine is None or s.machine == machine)
            and (table is None or s.table == table)
        ]
        out.sort(key=lambda s: (s.machine, s.table, s.window))
        return out

    def as_payload(self) -> dict:
        return {
            "version": self.version,
            "shards": [s.as_record() for s in self.select()],
        }


def write_store_manifest(root: str | Path, manifest: StoreManifest) -> None:
    """Atomically persist *manifest* at the store *root* (json-last)."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(manifest.as_payload(), indent=1).encode("utf-8")
    atomic_write(root / MANIFEST_NAME, lambda fh: fh.write(payload))


def read_store_manifest(root: str | Path) -> StoreManifest:
    """Load and structurally check the manifest at *root*.

    Raises :class:`StoreError` for a missing file, unparseable JSON or
    a schema-version mismatch — a store is not a cache; silently
    treating drift as a miss would hide real data loss.
    """
    path = Path(root) / MANIFEST_NAME
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise StoreError(f"no store manifest at {path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"unreadable store manifest at {path}: {exc}")
    version = payload.get("version")
    if version != STORE_SCHEMA_VERSION:
        raise StoreError(
            f"store schema version {version!r} != {STORE_SCHEMA_VERSION} "
            f"(at {path})"
        )
    try:
        shards = [ShardInfo.from_record(r) for r in payload["shards"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed shard records in {path}: {exc}")
    return StoreManifest(version=int(version), shards=shards)


def validate_store_manifest(
    root: str | Path, manifest: StoreManifest, verify_hashes: bool = False
) -> list[str]:
    """Cross-check *manifest* against the files on disk.

    Returns a list of human-readable problems (empty = healthy):
    missing shard files, duplicate shard keys, and — with
    *verify_hashes* — content digests that no longer match.
    """
    root = Path(root)
    problems: list[str] = []
    seen: set[tuple] = set()
    for shard in manifest.shards:
        key = (shard.machine, shard.table, shard.window)
        if key in seen:
            problems.append(f"duplicate shard key {key}")
        seen.add(key)
        shard_path = root / shard.path
        if not shard_path.is_file():
            problems.append(f"missing shard file {shard.path}")
        elif verify_hashes:
            digest = content_hash(shard_path)
            if digest != shard.content_hash:
                problems.append(
                    f"shard {shard.path} content hash mismatch "
                    f"({digest} != {shard.content_hash})"
                )
    return problems
