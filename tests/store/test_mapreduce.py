"""Map-reduce fleet analysis: shard-count equivalence, deterministic
reduce, per-machine degradation.

The central claim: because scans reassemble bit-identically, the number
of windows a trace was partitioned into can never change an analysis
result — observations, Weibull fits and merged bootstrap CIs are the
same bits at K=1, 2 and 7 as the batch pipeline run on the original
in-memory logs.
"""

import struct

import numpy as np
import pytest

from repro.core.pipeline import CoAnalysis
from repro.obs.metrics import get_metrics
from repro.simulate.calibration import CalibrationProfile
from repro.simulate.fleet import store_fleet, synthesize_fleet
from repro.store import ShardedDataset, analyze_fleet

WINDOW_COUNTS = [1, 2, 7]


def _bits(value):
    """Normalize one measured value for exact comparison (NaN-safe)."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def obs_key(observations):
    """Machine-level observations as an exactly comparable value."""
    return tuple(
        (
            o.number,
            o.holds,
            o.available,
            tuple(sorted((k, _bits(v)) for k, v in o.measured.items())),
        )
        for o in observations
    )


def fleet_obs_key(observations):
    """Merged fleet observations (with CIs) as a comparable value."""
    return tuple(
        (
            o.number,
            o.holds_count,
            o.available_count,
            o.total,
            tuple(
                sorted(
                    (k, _bits(ci.estimate), _bits(ci.low), _bits(ci.high))
                    for k, ci in o.measured.items()
                )
            ),
        )
        for o in observations
    )


@pytest.fixture(scope="module")
def fleet():
    return synthesize_fleet(CalibrationProfile(seed=17, scale=0.02), 2)


@pytest.fixture(scope="module")
def stores(fleet, tmp_path_factory):
    """The first machine's trace partitioned at each window count."""
    tmp = tmp_path_factory.mktemp("kstores")
    out = {}
    for windows in WINDOW_COUNTS:
        ds = ShardedDataset.create(tmp / f"k{windows}")
        ds.add_machine_trace(
            fleet[0].machine,
            fleet[0].ras_log,
            fleet[0].job_log,
            windows=windows,
        )
        out[windows] = ds
    return out


@pytest.fixture(scope="module")
def batch_result(fleet):
    return CoAnalysis().run(
        fleet[0].ras_log, fleet[0].job_log, source=fleet[0].machine
    )


@pytest.fixture(scope="module")
def fleet_results(stores):
    return {
        windows: analyze_fleet(stores[windows], seed=2011)
        for windows in WINDOW_COUNTS
    }


class TestShardCountEquivalence:
    @pytest.mark.parametrize("windows", WINDOW_COUNTS)
    def test_observations_match_batch(
        self, fleet_results, batch_result, windows
    ):
        (machine,) = fleet_results[windows].machines
        assert machine.ok, machine.error
        assert obs_key(machine.result.observations) == obs_key(
            batch_result.observations
        )

    @pytest.mark.parametrize("windows", WINDOW_COUNTS)
    def test_weibull_fits_match_batch(
        self, fleet_results, batch_result, windows
    ):
        got = fleet_results[windows].machines[0].result.interarrivals
        want = batch_result.interarrivals
        assert (got is None) == (want is None)
        if want is None:
            pytest.skip("trace too sparse for an interarrival fit")
        for side in ("before", "after"):
            g, w = getattr(got, side), getattr(want, side)
            assert (g is None) == (w is None)
            if w is not None:
                assert _bits(g.weibull.shape) == _bits(w.weibull.shape)
                assert _bits(g.weibull.scale) == _bits(w.weibull.scale)
                assert _bits(g.weibull.log_likelihood) == _bits(
                    w.weibull.log_likelihood
                )

    def test_merged_cis_identical_across_window_counts(self, fleet_results):
        keys = {
            windows: fleet_obs_key(fleet_results[windows].observations)
            for windows in WINDOW_COUNTS
        }
        assert keys[1] == keys[2] == keys[7]

    def test_single_machine_estimate_is_the_batch_value(
        self, fleet_results, batch_result
    ):
        batch = {o.number: o for o in batch_result.observations}
        for fo in fleet_results[1].observations:
            for key, ci in fo.measured.items():
                assert _bits(ci.estimate) == _bits(
                    float(batch[fo.number].measured[key])
                )


class TestFleetDriver:
    @pytest.fixture(scope="class")
    def dataset(self, fleet, tmp_path_factory):
        return store_fleet(
            tmp_path_factory.mktemp("fleet") / "store", fleet, windows=3
        )

    def test_reduce_is_seed_deterministic(self, dataset):
        a = analyze_fleet(dataset, seed=42)
        b = analyze_fleet(dataset, seed=42)
        assert fleet_obs_key(a.observations) == fleet_obs_key(b.observations)

    def test_summary_frame_keeps_int_counts(self, dataset):
        result = analyze_fleet(dataset)
        summary = result.summary_frame()
        assert summary.num_rows == 2
        for col in ("jobs", "interrupted_jobs", "events_filtered",
                    "events_final", "holds"):
            assert summary[col].dtype == np.int64, col
        assert summary["machine"].dtype == object
        assert summary["mtbf_h"].dtype == np.float64

    def test_one_bad_machine_degrades_not_dies(self, dataset, fleet):
        bad = fleet[1].machine

        class SelectiveBoom:
            def run(self, ras, job, source=""):
                if source == bad:
                    raise RuntimeError("injected map failure")
                return CoAnalysis().run(ras, job, source=source)

        get_metrics().reset()
        result = analyze_fleet(
            dataset, pipeline_factory=SelectiveBoom
        )
        assert result.degraded
        failed = next(m for m in result.machines if not m.ok)
        assert failed.machine == bad
        assert "injected map failure" in failed.error
        assert get_metrics().value("fleet.machines", status="ok") == 1
        assert get_metrics().value("fleet.machines", status="failed") == 1
        # the healthy machine still produces merged observations
        assert result.observations
        assert all(o.available_count <= 1 for o in result.observations)
        assert result.summary_frame().num_rows == 1
        # and the report renders the degradation instead of raising
        assert "DEGRADED" in result.report()

    def test_all_failed_fleet_yields_typed_empty_summary(self, dataset):
        class AlwaysBoom:
            def run(self, ras, job, source=""):
                raise RuntimeError("boom")

        result = analyze_fleet(
            dataset, pipeline_factory=AlwaysBoom
        )
        assert result.degraded and not result.ok_machines
        assert result.observations == []
        summary = result.summary_frame()
        assert summary.num_rows == 0
        assert summary["jobs"].dtype == np.int64
        assert summary["machine"].dtype == object

    def test_no_machines_rejected(self, tmp_path):
        ds = ShardedDataset.create(tmp_path / "empty")
        with pytest.raises(ValueError, match="no machines"):
            analyze_fleet(ds)

    def test_machine_subset(self, dataset, fleet):
        only = fleet[0].machine
        result = analyze_fleet(dataset, machines=[only])
        assert [m.machine for m in result.machines] == [only]
