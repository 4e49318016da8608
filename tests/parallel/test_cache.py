"""The content-addressed parse cache: hits, invalidation, corruption."""

import numpy as np
import pytest

from repro.logs import IngestPolicy, RasLog, read_ras_log, write_ras_log
from repro.parallel import ParseCache
from repro.parallel import cache as cache_mod

from tests.logs.test_ras import make_record


@pytest.fixture()
def ras_file(tmp_path):
    records = [
        make_record(recid=i, t=1000.0 + 5.0 * i) for i in range(1, 101)
    ]
    path = tmp_path / "ras.log"
    write_ras_log(RasLog.from_records(records), path)
    return path


@pytest.fixture()
def dirty_file(ras_file, tmp_path):
    from repro.faults.corruption import LogCorruptor

    out = tmp_path / "ras_bad.log"
    LogCorruptor(seed=3, rate=0.1, kind="ras").corrupt_file(ras_file, out)
    return out


@pytest.fixture()
def cache(tmp_path):
    return ParseCache(tmp_path / "cache")


def assert_logs_identical(a, b):
    assert a.frame.columns == b.frame.columns
    for col in a.frame.columns:
        assert a.frame[col].dtype == b.frame[col].dtype, col
        assert np.array_equal(a.frame[col], b.frame[col]), col
    ra, rb = a.quarantine, b.quarantine
    assert (ra is None) == (rb is None)
    if ra is not None:
        assert ra.total_rows == rb.total_rows
        assert ra.as_dict() == rb.as_dict()
        assert {
            d: [(r.line_no, r.text) for r in recs]
            for d, recs in ra.samples.items()
        } == {
            d: [(r.line_no, r.text) for r in recs]
            for d, recs in rb.samples.items()
        }


class TestHit:
    def test_second_read_hits_bit_identical(self, dirty_file, cache):
        first = read_ras_log(dirty_file, policy="quarantine", cache=cache)
        second = read_ras_log(dirty_file, policy="quarantine", cache=cache)
        assert first.cache_status == "miss"
        assert second.cache_status == "hit"
        assert_logs_identical(first, second)

    def test_no_cache_leaves_status_none(self, ras_file):
        log = read_ras_log(ras_file, policy="quarantine")
        assert log.cache_status is None

    def test_skip_mode_report_round_trips(self, dirty_file, cache):
        first = read_ras_log(dirty_file, policy="skip", cache=cache)
        second = read_ras_log(dirty_file, policy="skip", cache=cache)
        assert second.cache_status == "hit"
        # skip mode keeps counts only — no sample lines survive the trip
        assert all(not recs for recs in second.quarantine.samples.values())
        assert_logs_identical(first, second)

    def test_job_and_ras_kinds_do_not_collide(self, ras_file, cache):
        pol = IngestPolicy(mode="quarantine")
        assert cache.key_for(ras_file, kind="ras", policy=pol) != cache.key_for(
            ras_file, kind="job", policy=pol
        )


class TestInvalidation:
    def test_content_change_misses(self, ras_file, cache):
        read_ras_log(ras_file, policy="quarantine", cache=cache)
        with open(ras_file, "a") as fh:
            fh.write(
                "101|KERN_0802|KERNEL|_bgp_unit|KERN_PANIC|FATAL"
                "|2008-04-14-15.08.12.285324|R00-M0|SN1|late row\n"
            )
        log = read_ras_log(ras_file, policy="quarantine", cache=cache)
        assert log.cache_status == "miss"

    def test_policy_change_misses(self, ras_file, cache):
        read_ras_log(ras_file, policy="quarantine", cache=cache)
        log = read_ras_log(ras_file, policy="skip", cache=cache)
        assert log.cache_status == "miss"
        strict = read_ras_log(ras_file, policy="strict", cache=cache)
        assert strict.cache_status == "miss"

    def test_schema_version_bump_misses(
        self, ras_file, cache, monkeypatch
    ):
        # the version participates in the key, so a bump never even
        # finds the old entry — a clean miss, not a stale hit
        read_ras_log(ras_file, policy="quarantine", cache=cache)
        monkeypatch.setattr(cache_mod, "PARSE_SCHEMA_VERSION", 9999)
        log = read_ras_log(ras_file, policy="quarantine", cache=cache)
        assert log.cache_status == "miss"

    def test_sidecar_version_drift_is_stale(self, ras_file, cache):
        # an entry written by a different layout generation under the
        # same key (hand-migrated cache dir) classifies as stale
        import json

        read_ras_log(ras_file, policy="quarantine", cache=cache)
        for sidecar in cache.directory.glob("*.json"):
            payload = json.loads(sidecar.read_text())
            payload["version"] = 9999
            sidecar.write_text(json.dumps(payload))
        log = read_ras_log(ras_file, policy="quarantine", cache=cache)
        assert log.cache_status == "stale"

    def test_corrupt_payload_reparsed_then_repaired(self, ras_file, cache):
        first = read_ras_log(ras_file, policy="quarantine", cache=cache)
        for npz in cache.directory.glob("*.npz"):
            npz.write_bytes(b"not a zip archive")
        log = read_ras_log(ras_file, policy="quarantine", cache=cache)
        assert log.cache_status == "corrupt"
        assert_logs_identical(first, log)
        repaired = read_ras_log(ras_file, policy="quarantine", cache=cache)
        assert repaired.cache_status == "hit"
        assert_logs_identical(first, repaired)

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.1, 0.5, 0.9, 0.99])
    def test_truncated_npz_is_corrupt_then_repaired(
        self, ras_file, cache, keep_fraction
    ):
        # a partial atomic-write survivor / disk-full artifact: the npz
        # is readable as a file but cut short at an arbitrary point —
        # classification must be "corrupt" and fall through to a
        # re-parse, never raise out of the lookup
        first = read_ras_log(ras_file, policy="quarantine", cache=cache)
        assert first.cache_status == "miss"
        for npz in cache.directory.glob("*.npz"):
            payload = npz.read_bytes()
            npz.write_bytes(payload[: int(len(payload) * keep_fraction)])
        log = read_ras_log(ras_file, policy="quarantine", cache=cache)
        assert log.cache_status == "corrupt"
        assert_logs_identical(first, log)
        # the re-parse re-stored a good entry
        repaired = read_ras_log(ras_file, policy="quarantine", cache=cache)
        assert repaired.cache_status == "hit"
        assert_logs_identical(first, repaired)

    def test_truncated_npz_increments_corrupt_counter(self, ras_file, cache):
        from repro.obs.metrics import get_metrics

        get_metrics().reset()
        read_ras_log(ras_file, policy="quarantine", cache=cache)
        for npz in cache.directory.glob("*.npz"):
            payload = npz.read_bytes()
            npz.write_bytes(payload[: len(payload) // 2])
        read_ras_log(ras_file, policy="quarantine", cache=cache)
        assert (
            get_metrics().value("ingest.cache.lookups", status="corrupt") == 1
        )

    def test_corrupt_sidecar_reparsed(self, ras_file, cache):
        read_ras_log(ras_file, policy="quarantine", cache=cache)
        for sidecar in cache.directory.glob("*.json"):
            sidecar.write_text("{broken json")
        log = read_ras_log(ras_file, policy="quarantine", cache=cache)
        assert log.cache_status == "corrupt"

    def test_mismatched_column_lengths_are_corrupt(self, ras_file, cache):
        # a decodable entry whose columns disagree on length (the
        # nastiest truncation survivor) must classify corrupt, not
        # build a broken frame
        import json

        read_ras_log(ras_file, policy="quarantine", cache=cache)
        for sidecar in cache.directory.glob("*.json"):
            key = sidecar.stem
            payload = json.loads(sidecar.read_text())
            loaded = cache.load(key)
            assert loaded is not None
            frame, _ = loaded
            short = frame.head(frame.num_rows - 1)
            arrays = {}
            for j, (name, encoding) in enumerate(
                (c[0], c[1]) for c in payload["columns"]
            ):
                col = (frame if j == 0 else short)[name]
                if encoding == "dict":
                    values, codes = np.unique(col, return_inverse=True)
                    arrays[f"{j}.values"] = values
                    arrays[f"{j}.codes"] = codes.astype(np.int32)
                else:
                    arrays[f"{j}.raw"] = col
            with open(cache.directory / f"{key}.npz", "wb") as fh:
                np.savez(fh, **arrays)
        log = read_ras_log(ras_file, policy="quarantine", cache=cache)
        assert log.cache_status == "corrupt"


def _drop_counts(state):
    del state["counts"]


def _counts_as_list(state):
    state["counts"] = list(state["counts"].items())


def _total_rows_as_text(state):
    state["total_rows"] = str(state["total_rows"])


def _unknown_defect(state):
    state["counts"]["no_such_defect"] = 1


def _sample_without_text(state):
    for recs in state["samples"].values():
        recs[0] = recs[0][:1]


def _span_as_number(state):
    state["clean_span"] = 1000.0


class TestMalformedReportState:
    """A sidecar whose report state cannot be replayed is a corrupt
    entry: re-parsed, never a hit that raises out of the read."""

    @pytest.mark.parametrize(
        "damage",
        [
            _drop_counts,
            _counts_as_list,
            _total_rows_as_text,
            _unknown_defect,
            _sample_without_text,
            _span_as_number,
        ],
    )
    def test_reads_corrupt_and_matches_a_cacheless_read(
        self, dirty_file, cache, damage
    ):
        import json

        from repro.obs.metrics import get_metrics

        get_metrics().reset()
        want = read_ras_log(dirty_file, policy="quarantine")
        defects_want = {
            d.value: get_metrics().value("ingest.quarantine.defects", defect=d.value)
            for d in want.quarantine.counts
        }
        read_ras_log(dirty_file, policy="quarantine", cache=cache)
        (sidecar,) = cache.directory.glob("*.json")
        payload = json.loads(sidecar.read_text())
        assert payload["report"]["samples"]
        damage(payload["report"])
        sidecar.write_text(json.dumps(payload))

        get_metrics().reset()
        got = read_ras_log(dirty_file, policy="quarantine", cache=cache)
        assert got.cache_status == "corrupt"
        assert_logs_identical(want, got)
        # the damaged state was not replayed on top of the re-parse
        assert {
            d: get_metrics().value("ingest.quarantine.defects", defect=d)
            for d in defects_want
        } == defects_want
        again = read_ras_log(dirty_file, policy="quarantine", cache=cache)
        assert again.cache_status == "hit"
        assert_logs_identical(want, again)


class TestFailedParsesAreNotCached:
    def test_strict_raise_stores_nothing(self, dirty_file, cache):
        from repro.logs.quarantine import IngestError

        with pytest.raises(IngestError):
            read_ras_log(dirty_file, policy="strict", cache=cache)
        assert list(cache.directory.glob("*.json")) == []

    def test_abort_stores_nothing(self, dirty_file, cache):
        from repro.logs.quarantine import IngestAbortError

        policy = IngestPolicy(mode="quarantine", max_bad_records=0)
        with pytest.raises(IngestAbortError):
            read_ras_log(dirty_file, policy=policy, cache=cache)
        assert list(cache.directory.glob("*.json")) == []
