"""Sharded store correctness: roundtrips, pruning (proven via
metrics, not trusted), manifest integrity and failure modes."""

import json

import numpy as np
import pytest

from repro.obs.metrics import get_metrics
from repro.simulate.fleet import store_fleet, synthesize_fleet
from repro.simulate.calibration import CalibrationProfile
from repro.store import (
    STORE_SCHEMA_VERSION,
    ShardedDataset,
    StoreManifest,
    partition_edges,
)
from repro.store.manifest import MANIFEST_NAME, StoreError
from tests.frame.npz_reference import rewrite_npz


@pytest.fixture(scope="module")
def machine():
    """One small synthesized machine trace (module-scoped: simulation
    dominates this file's runtime)."""
    return synthesize_fleet(CalibrationProfile(seed=5, scale=0.02), 1)[0]


def metric(name, **labels):
    """Counter value, 0 when never incremented."""
    return get_metrics().value(name, **labels) or 0


def _first_dict_column(shard):
    return next(
        j for j, (_, enc, _) in enumerate(shard.columns) if enc == "dict"
    )


def make_store(tmp_path, machine, windows):
    ds = ShardedDataset.create(tmp_path / f"store_k{windows}")
    ds.add_machine_trace(
        machine.machine, machine.ras_log, machine.job_log, windows=windows
    )
    return ds


def assert_frames_identical(a, b):
    assert a.columns == b.columns
    for col in a.columns:
        assert a[col].dtype == b[col].dtype, col
        assert np.array_equal(a[col], b[col]), col


class TestRoundtrip:
    @pytest.mark.parametrize("windows", [1, 2, 7])
    def test_scan_is_bit_identical_inverse(self, tmp_path, machine, windows):
        ds = make_store(tmp_path, machine, windows)
        assert_frames_identical(
            ds.load_ras(machine.machine).frame, machine.ras_log.frame
        )
        assert_frames_identical(
            ds.load_job(machine.machine).frame, machine.job_log.frame
        )

    def test_reopen_and_scan(self, tmp_path, machine):
        ds = make_store(tmp_path, machine, 4)
        reopened = ShardedDataset.open(ds.root)
        assert reopened.machines() == [machine.machine]
        assert_frames_identical(
            reopened.load_ras(machine.machine).frame, machine.ras_log.frame
        )

    def test_validate_clean_store(self, tmp_path, machine):
        ds = make_store(tmp_path, machine, 2)
        assert ds.validate(verify_hashes=True) == []

    def test_time_range_scan_equals_batch_filter(self, tmp_path, machine):
        ds = make_store(tmp_path, machine, 6)
        t = machine.ras_log.frame["event_time"]
        q0 = float(np.quantile(t, 0.3))
        q1 = float(np.quantile(t, 0.6))
        got = ds.scan(machine.machine, "ras", time_range=(q0, q1))
        want = machine.ras_log.frame.filter((t >= q0) & (t < q1))
        assert_frames_identical(got, want)


class TestPruning:
    WINDOWS = 10

    def _edges(self, machine):
        spans = np.concatenate(
            [
                machine.ras_log.frame["event_time"],
                machine.job_log.frame["start_time"],
            ]
        )
        return partition_edges(
            float(spans.min()), float(spans.max()), self.WINDOWS
        )

    def test_out_of_range_shards_never_opened(self, tmp_path, machine):
        ds = make_store(tmp_path, machine, self.WINDOWS)
        edges = self._edges(machine)
        get_metrics().reset()
        ds.scan(
            machine.machine, "ras", time_range=(edges[4], edges[5])
        )
        assert metric("store.scan.shards", table="ras", status="opened") == 1
        assert metric("store.scan.shards", table="ras", status="pruned") == 9
        # the spy that proves it: pruned shard files are never read
        assert metric("store.shard.loads") == 1

    def test_all_pruned_scan_touches_no_disk(self, tmp_path, machine):
        ds = make_store(tmp_path, machine, self.WINDOWS)
        t1 = float(machine.ras_log.frame["event_time"].max())
        get_metrics().reset()
        out = ds.scan(
            machine.machine, "ras", time_range=(t1 + 1e6, t1 + 2e6)
        )
        assert out.num_rows == 0
        assert metric("store.scan.shards", table="ras", status="pruned") == 10
        assert metric("store.shard.loads") == 0
        # typed empty: dtypes come from the manifest spec, not the disk
        batch = machine.ras_log.frame
        for col in batch.columns:
            assert out[col].dtype == batch[col].dtype, col

    def test_pruned_range_rows_match_batch(self, tmp_path, machine):
        ds = make_store(tmp_path, machine, self.WINDOWS)
        edges = self._edges(machine)
        q = (float(edges[2]), float(edges[7]))
        got = ds.scan(machine.machine, "job", time_range=q)
        t = machine.job_log.frame["start_time"]
        want = machine.job_log.frame.filter((t >= q[0]) & (t < q[1]))
        assert_frames_identical(got, want)


class TestFailureModes:
    def test_open_missing_store_raises(self, tmp_path):
        with pytest.raises(StoreError, match="manifest"):
            ShardedDataset.open(tmp_path / "nowhere")

    def test_version_drift_raises(self, tmp_path, machine):
        ds = make_store(tmp_path, machine, 1)
        manifest_path = ds.root / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        payload["version"] = STORE_SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="version"):
            ShardedDataset.open(ds.root)

    def test_duplicate_machine_rejected(self, tmp_path, machine):
        ds = make_store(tmp_path, machine, 1)
        with pytest.raises(StoreError, match="already"):
            ds.add_machine_trace(
                machine.machine, machine.ras_log, machine.job_log
            )

    def test_scan_unknown_machine_raises(self, tmp_path, machine):
        ds = make_store(tmp_path, machine, 1)
        with pytest.raises(StoreError, match="no 'ras' shards"):
            ds.scan("not-a-machine", "ras")

    def test_scan_unknown_table_raises(self, tmp_path, machine):
        ds = make_store(tmp_path, machine, 1)
        with pytest.raises(ValueError, match="unknown table"):
            ds.scan(machine.machine, "events")

    def test_validate_flags_missing_column_file(self, tmp_path, machine):
        """The shard file holds every column; deleting it is flagged."""
        ds = make_store(tmp_path, machine, 2)
        shard = ds.manifest.select(machine.machine, "ras")[1]
        (ds.root / shard.path).unlink()
        problems = ds.validate()
        assert any(shard.path in p for p in problems)

    def test_validate_flags_hash_mismatch(self, tmp_path, machine):
        ds = make_store(tmp_path, machine, 1)
        shard = ds.manifest.select(machine.machine, "ras")[0]
        j = _first_dict_column(shard)
        with rewrite_npz(ds.root / shard.path) as arrays:
            arrays[f"{j}.codes"][0] ^= 1
        assert ds.validate(verify_hashes=False) == []
        problems = ds.validate(verify_hashes=True)
        assert any("hash" in p for p in problems)

    def test_out_of_range_codes_raise_naming_the_shard(
        self, tmp_path, machine
    ):
        """numpy reads ``values[-1]`` as the last value: a code of -1
        must fail the scan, not decode to the wrong strings."""
        ds = make_store(tmp_path, machine, 2)
        shard = ds.manifest.select(machine.machine, "ras")[1]
        j = _first_dict_column(shard)
        with rewrite_npz(ds.root / shard.path) as arrays:
            arrays[f"{j}.codes"][0] = -1
        with pytest.raises(StoreError, match=shard.path):
            ds.scan(machine.machine, "ras")


class TestPartitionEdges:
    def test_edges_cover_span(self):
        e = partition_edges(0.0, 100.0, 4)
        assert list(e) == [0.0, 25.0, 50.0, 75.0, 100.0]

    def test_zero_windows_rejected(self):
        with pytest.raises(ValueError, match="window"):
            partition_edges(0.0, 1.0, 0)

    def test_inverted_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            partition_edges(5.0, 1.0, 3)

    def test_empty_manifest_has_no_machines(self, tmp_path):
        ds = ShardedDataset.create(tmp_path / "empty")
        assert ds.machines() == []
        assert isinstance(ds.manifest, StoreManifest)


class TestAppendWindow:
    """Incremental appends: one new window per table, existing shards
    never rewritten, time order enforced against the stored envelope."""

    def _split(self, machine, frac=0.8):
        t = machine.ras_log.frame["event_time"]
        s = machine.job_log.frame["start_time"]
        lo = min(float(t.min()), float(s.min()))
        hi = max(float(t.max()), float(s.max()))
        cut = lo + frac * (hi - lo)
        past = np.nextafter(hi, np.inf)
        return (
            (machine.ras_log.select_time(lo, cut),
             machine.job_log.select_time(lo, cut)),
            (machine.ras_log.select_time(cut, past),
             machine.job_log.select_time(cut, past)),
        )

    def test_append_then_scan_equals_full_trace(self, tmp_path, machine):
        (ras0, job0), (ras1, job1) = self._split(machine)
        ds = ShardedDataset.create(tmp_path / "store")
        ds.add_machine_trace(machine.machine, ras0, job0, windows=2)
        ds.append_machine_window(machine.machine, ras1, job1)
        reopened = ShardedDataset.open(tmp_path / "store")
        assert_frames_identical(
            reopened.load_ras(machine.machine).frame, machine.ras_log.frame
        )
        assert_frames_identical(
            reopened.load_job(machine.machine).frame, machine.job_log.frame
        )

    def test_existing_shards_untouched(self, tmp_path, machine):
        (ras0, job0), (ras1, job1) = self._split(machine)
        ds = ShardedDataset.create(tmp_path / "store")
        ds.add_machine_trace(machine.machine, ras0, job0, windows=2)
        before = {
            p: p.read_bytes()
            for p in sorted((tmp_path / "store").rglob("*"))
            if p.is_file() and p.name != MANIFEST_NAME
        }
        new = ds.append_machine_window(machine.machine, ras1, job1)
        assert {s.table for s in new} == {"ras", "job"}
        assert all(s.window == 2 for s in new)
        for path, content in before.items():
            assert path.read_bytes() == content, f"{path} was rewritten"

    def test_out_of_order_append_rejected(self, tmp_path, machine):
        (ras0, job0), (ras1, job1) = self._split(machine)
        ds = ShardedDataset.create(tmp_path / "store")
        ds.add_machine_trace(machine.machine, ras0, job0, windows=1)
        with pytest.raises(StoreError, match="out of order"):
            ds.append_machine_window(machine.machine, ras0, job0)

    def test_append_to_unknown_machine_rejected(self, tmp_path, machine):
        ds = ShardedDataset.create(tmp_path / "store")
        with pytest.raises(StoreError, match="not in store"):
            ds.append_machine_window("ghost", machine.ras_log, machine.job_log)
