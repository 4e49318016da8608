"""Package-level API hygiene: imports, __all__, version."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = [
    "repro",
    "repro.frame",
    "repro.machine",
    "repro.stats",
    "repro.logs",
    "repro.workload",
    "repro.sched",
    "repro.faults",
    "repro.core",
    "repro.core.filtering",
    "repro.predict",
    "repro.policy",
    "repro.viz",
    "repro.simulate",
]


class TestImports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_importable(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_cli_import_loads_no_scipy(self):
        """``repro.stats`` is numpy + ``math`` only: the CLI must start
        without importing SciPy (it cost ~0.9 s a process)."""
        code = (
            "import repro.cli, sys; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], "
            "sorted(m for m in sys.modules if m.startswith('scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_quickstart_docstring_names_exist(self):
        """The package docstring's quickstart must stay runnable."""
        from repro.core import CoAnalysis
        from repro.simulate import CalibrationProfile, IntrepidSimulation

        assert callable(CoAnalysis)
        assert callable(IntrepidSimulation)
        assert callable(CalibrationProfile)


class TestCascadeMap:
    def test_companions_exist_in_catalog(self):
        from repro.faults.catalog import catalog_by_errcode
        from repro.faults.storms import CASCADE_MAP

        for primary, (companion, mean) in CASCADE_MAP.items():
            catalog_by_errcode(primary)
            catalog_by_errcode(companion)
            assert mean > 0

    def test_no_self_cascade(self):
        from repro.faults.storms import CASCADE_MAP

        for primary, (companion, _) in CASCADE_MAP.items():
            assert primary != companion

    def test_noise_templates_have_valid_severities(self):
        from repro.faults.storms import _NOISE_TEMPLATES
        from repro.logs.ras import COMPONENTS, SEVERITIES

        for msg_id, component, sub, errcode, severity, message in _NOISE_TEMPLATES:
            assert severity in SEVERITIES and severity != "FATAL"
            assert component in COMPONENTS
