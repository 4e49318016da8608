"""Manifest writing, reading, validation and the bench exporter."""

import json

import pytest

from repro.core.observations import Observation
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    MetricsRegistry,
    Tracer,
    config_fingerprint,
    read_manifest,
    record_bench,
    validate_manifest,
    write_manifest,
)


def _full_manifest(tmp_path):
    tracer = Tracer()
    with tracer.activate(root="run"):
        with tracer.span("stage") as sp:
            sp.rows = 7
    registry = MetricsRegistry()
    registry.counter("events", kind="fatal").inc(3)
    registry.histogram("wall").observe(0.5)
    obs = Observation(number=1, title="t", holds=True, measured={"x": 1.5})
    path = tmp_path / "run.jsonl"
    write_manifest(
        path,
        tracer=tracer,
        metrics=registry,
        config={"scale": 0.1, "workers": 2},
        observations=[obs],
    )
    return path


class TestRoundtrip:
    def test_written_manifest_validates_clean(self, tmp_path):
        path = _full_manifest(tmp_path)
        assert validate_manifest(path) == []

    def test_read_back_sections(self, tmp_path):
        manifest = read_manifest(_full_manifest(tmp_path))
        run = manifest["run"]
        assert run["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert run["config"] == {"scale": 0.1, "workers": 2}
        assert run["config_fingerprint"] == config_fingerprint(
            {"workers": 2, "scale": 0.1}
        )
        assert {s["name"] for s in manifest["spans"]} == {"run", "stage"}
        assert len(manifest["metrics"]) == 2
        (obs,) = manifest["observations"]
        assert obs["number"] == 1 and obs["holds"] is True
        assert obs["measured"] == {"x": 1.5}

    def test_one_line_per_record(self, tmp_path):
        path = _full_manifest(tmp_path)
        lines = path.read_text().strip().splitlines()
        assert all(json.loads(line) for line in lines)
        assert json.loads(lines[0])["type"] == "run"

    def test_empty_manifest_still_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_manifest(path)
        assert validate_manifest(path) == []


class TestFingerprint:
    def test_order_independent(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_sensitive_to_values(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})


class TestValidator:
    def test_missing_run_record(self):
        problems = validate_manifest({"run": None, "spans": []})
        assert any("run record" in p for p in problems)

    def test_bad_schema_version(self, tmp_path):
        manifest = read_manifest(_full_manifest(tmp_path))
        manifest["run"]["schema_version"] = 99
        assert any(
            "schema_version" in p for p in validate_manifest(manifest)
        )

    def test_duplicate_span_id(self, tmp_path):
        manifest = read_manifest(_full_manifest(tmp_path))
        manifest["spans"].append(dict(manifest["spans"][0]))
        assert any("duplicate" in p for p in validate_manifest(manifest))

    def test_unknown_parent(self, tmp_path):
        manifest = read_manifest(_full_manifest(tmp_path))
        manifest["spans"][1]["parent"] = 12345
        assert any(
            "unknown parent" in p for p in validate_manifest(manifest)
        )

    def test_two_roots(self, tmp_path):
        manifest = read_manifest(_full_manifest(tmp_path))
        manifest["spans"][1]["parent"] = None
        assert any("one root" in p for p in validate_manifest(manifest))

    def test_negative_wall(self, tmp_path):
        manifest = read_manifest(_full_manifest(tmp_path))
        manifest["spans"][0]["wall_s"] = -1.0
        assert any("bad wall_s" in p for p in validate_manifest(manifest))

    def test_unknown_metric_kind(self, tmp_path):
        manifest = read_manifest(_full_manifest(tmp_path))
        manifest["metrics"][0]["kind"] = "summary"
        assert any("metric kind" in p for p in validate_manifest(manifest))

    def test_observation_missing_holds(self, tmp_path):
        manifest = read_manifest(_full_manifest(tmp_path))
        del manifest["observations"][0]["holds"]
        assert any("holds" in p for p in validate_manifest(manifest))

    def test_unreadable_path_reported_not_raised(self, tmp_path):
        problems = validate_manifest(tmp_path / "missing.jsonl")
        assert problems


class TestRecordBench:
    def test_creates_and_appends(self, tmp_path):
        path = record_bench("demo", "wall_s", 1.25, directory=tmp_path)
        assert path.name == "BENCH_demo.json"
        record_bench("demo", "wall_s", 1.5, directory=tmp_path, workers=4)
        records = json.loads(path.read_text())
        assert [r["value"] for r in records] == [1.25, 1.5]
        assert records[1]["workers"] == 4
        assert all(
            {"ts", "git_rev", "metric", "value"} <= set(r) for r in records
        )

    def test_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "b"))
        path = record_bench("env", "v", 1.0)
        assert path.parent == tmp_path / "b"

    def test_torn_file_refused_and_kept(self, tmp_path):
        """A torn trajectory must not be replaced by a one-record list:
        the committed records would be lost."""
        path = record_bench("x", "v", 1.0, directory=tmp_path)
        torn = path.read_bytes()[:-3] + b',\n {"ts": "2026'
        path.write_bytes(torn)
        with pytest.raises(ValueError, match="BENCH_x.json"):
            record_bench("x", "v", 2.0, directory=tmp_path)
        assert path.read_bytes() == torn
        assert sorted(tmp_path.iterdir()) == [path]

    def test_non_list_file_refused_and_kept(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"metric": "v", "value": 1.0}\n')
        with pytest.raises(ValueError, match="BENCH_x.json"):
            record_bench("x", "v", 2.0, directory=tmp_path)
        assert path.read_text() == '{"metric": "v", "value": 1.0}\n'


class TestPerRunMetricDeltas:
    def test_two_back_to_back_runs_write_equal_counters(self, tmp_path):
        """Two identical runs in one process: the second manifest's
        counters must equal the first's, not double them."""
        registry = MetricsRegistry()

        def run(n):
            base = registry.mark()
            registry.counter("kernel.filter.raw").inc(10)
            registry.histogram("stage.wall").observe(0.25)
            path = tmp_path / f"run{n}.jsonl"
            write_manifest(path, metrics=registry, metrics_since=base)
            return read_manifest(path)["metrics"]

        first, second = run(1), run(2)
        assert first == second
        raw = [m for m in first if m["name"] == "kernel.filter.raw"]
        assert raw and raw[0]["value"] == 10
