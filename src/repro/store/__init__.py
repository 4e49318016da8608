"""repro.store — the partitioned on-disk columnar dataset.

The batch pipeline reads one (RAS, job) pair per run; a fleet does not
fit that shape. This package stores a **sharded dataset**: frames
partitioned by ``(machine, time_window)`` into one frame file per shard
(the parse cache's ``.npz`` format, :mod:`repro.frame.npz`), indexed by
a JSON manifest (schema version, row counts, time ranges, content
hashes), and pruned by time range at scan time so a narrow query never
opens out-of-range shards.

Layers:

* :mod:`repro.store.manifest` — the dataset index: schema-versioned
  JSON, written atomically json-last, validated on read;
* :mod:`repro.store.dataset` — :class:`ShardedDataset`: write the
  windows of :func:`repro.logs.window.split_trace` as shards, scan them
  back (bit-identical to the unpartitioned frame), prune by time range,
  with ``store.*`` spans and metrics;
* :mod:`repro.store.mapreduce` — the fleet co-analysis driver: map the
  batch pipeline over the machines in order, reduce per-machine
  observations into cross-machine verdicts with bootstrap CIs.
"""

from repro.store.dataset import ShardedDataset
from repro.store.manifest import (
    STORE_SCHEMA_VERSION,
    ShardInfo,
    StoreManifest,
    read_store_manifest,
    validate_store_manifest,
    write_store_manifest,
)
from repro.store.mapreduce import (
    FleetObservation,
    FleetResult,
    MachineAnalysis,
    analyze_fleet,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ShardInfo",
    "StoreManifest",
    "ShardedDataset",
    "read_store_manifest",
    "write_store_manifest",
    "validate_store_manifest",
    "MachineAnalysis",
    "FleetObservation",
    "FleetResult",
    "analyze_fleet",
]
