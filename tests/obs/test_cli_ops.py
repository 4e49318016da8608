"""CLI ops plane: daemon --ops-dir, `repro health`, `repro dash`."""

import pytest

from repro.cli import main
from repro.logs import write_job_log, write_ras_log
from repro.obs import read_ops_log
from repro.obs.metrics import get_metrics
from tests.obs.opslog_checks import validate_ops_log
from tests.stream.conftest import make_jobs, make_ras


@pytest.fixture(autouse=True)
def fresh_registry():
    get_metrics().reset()
    yield
    get_metrics().reset()


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace")
    ras = make_ras(200, seed=31)
    job = make_jobs(ras, 30, seed=32)
    write_ras_log(ras, root / "ras.psv")
    write_job_log(job, root / "job.psv")
    return root / "ras.psv", root / "job.psv"


@pytest.fixture()
def ops_dir(trace_files, tmp_path):
    """One daemon lifetime with the ops plane on; returns the ops dir."""
    ras, job = trace_files
    rc = main([
        "daemon",
        "--ras", str(ras),
        "--job", str(job),
        "--checkpoint-root", str(tmp_path / "ckpt"),
        "--poll-interval", "0",
        "--idle-exit", "2",
        "--ops-dir", str(tmp_path / "ops"),
        "--sample-interval", "0.001",
        "--alert-rule",
        "flow: rate(stream.released_rows) > 1 clear 0.5",
    ])
    assert rc == 0
    return tmp_path / "ops"


class TestDaemonOpsFlags:
    def test_ops_dir_populated(self, ops_dir):
        assert validate_ops_log(read_ops_log(ops_dir / "ops.jsonl")) == []
        assert (ops_dir / "ops_ras.psv").exists()
        assert (ops_dir / "health.json").exists()

    def test_bad_alert_rule_rejected(self, trace_files, tmp_path, capsys):
        ras, job = trace_files
        rc = main([
            "daemon", "--ras", str(ras), "--job", str(job),
            "--checkpoint-root", str(tmp_path / "ckpt"),
            "--ops-dir", str(tmp_path / "ops"),
            "--alert-rule", "not a rule",
        ])
        assert rc == 2
        assert "bad --alert-rule" in capsys.readouterr().err

    def test_alert_rule_requires_ops_dir(self, trace_files, tmp_path,
                                         capsys):
        ras, job = trace_files
        rc = main([
            "daemon", "--ras", str(ras), "--job", str(job),
            "--checkpoint-root", str(tmp_path / "ckpt"),
            "--alert-rule", "a: m > 1",
        ])
        assert rc == 2
        assert "requires --ops-dir" in capsys.readouterr().err

    def test_zero_sample_interval_rejected(self, trace_files, tmp_path,
                                           capsys):
        ras, job = trace_files
        rc = main([
            "daemon", "--ras", str(ras), "--job", str(job),
            "--checkpoint-root", str(tmp_path / "ckpt"),
            "--ops-dir", str(tmp_path / "ops"),
            "--sample-interval", "0",
        ])
        assert rc == 2
        assert "must be positive" in capsys.readouterr().err


class TestHealthCommand:
    def test_healthy_final_exit_zero(self, ops_dir, capsys):
        rc = main(["health", "--ops-dir", str(ops_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status: healthy" in out
        assert "(final)" in out

    def test_history_prints_transitions(self, ops_dir, capsys):
        rc = main(["health", "--ops-dir", str(ops_dir), "--history"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "None -> " in out
        assert "transitions, last status:" in out

    def test_missing_ops_dir_exit_two(self, tmp_path, capsys):
        rc = main(["health", "--ops-dir", str(tmp_path / "nope")])
        assert rc == 2
        assert "unhealthy" in capsys.readouterr().out

    def test_history_without_heartbeats(self, tmp_path, capsys):
        (tmp_path / "ops.jsonl").write_text(
            '{"type": "header", "schema_version": 1}\n'
        )
        rc = main(["health", "--ops-dir", str(tmp_path), "--history"])
        assert rc == 2
        assert "no heartbeats" in capsys.readouterr().err


class TestDashCommand:
    def test_once_renders_frame(self, ops_dir, capsys):
        rc = main(["dash", "--ops-dir", str(ops_dir), "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[ OK ]" in out
        assert "rates over" in out
        assert "heartbeats" in out

    def test_prom_exposition(self, ops_dir, capsys):
        rc = main(["dash", "--ops-dir", str(ops_dir), "--prom"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_stream_released_rows counter" in out
        assert 'repro_stream_released_rows{table="ras"}' in out

    def test_prom_missing_log(self, tmp_path, capsys):
        rc = main(["dash", "--ops-dir", str(tmp_path), "--prom"])
        assert rc == 2
        assert "cannot read ops log" in capsys.readouterr().err

    def test_once_tolerates_empty_dir(self, tmp_path, capsys):
        rc = main(["dash", "--ops-dir", str(tmp_path), "--once"])
        assert rc == 0
        assert "no health snapshot" in capsys.readouterr().out
