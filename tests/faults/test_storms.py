"""Unit tests for RAS storm emission."""

from collections import Counter

import numpy as np
import pytest

from repro.faults import Incident, IncidentCause, StormEmitter
from repro.faults.catalog import catalog_by_errcode
from repro.machine.partition import Partition


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def make_incident(errcode="_bgp_err_kernel_panic", t=1000.0, loc="R10-M0-N03-J07",
                  jobs=(5,)):
    return Incident(
        time=t,
        fault_type=catalog_by_errcode(errcode),
        location=loc,
        cause=IncidentCause.TRANSIENT,
        interrupted_job_ids=jobs,
    )


def make_emitter(noise=0.0):
    return StormEmitter(t_start=0.0, duration=86400.0, noise_count_mean=noise,
                        cascade_probability=0.0)


class TestStorms:
    def test_storm_inflates_one_incident(self, rng):
        emitter = make_emitter()
        log = emitter.emit([make_incident()], {5: Partition(16, 2)}, rng)
        assert len(log) > 10  # kernel panic storm_mean is 110
        assert set(log.frame["errcode"]) == {"_bgp_err_kernel_panic"}
        assert set(log.frame["severity"]) == {"FATAL"}

    def test_first_record_at_incident_location_and_time(self, rng):
        emitter = make_emitter()
        log = emitter.emit([make_incident()], {5: Partition(16, 2)}, rng)
        first = log.frame.row(0)
        assert first["event_time"] == 1000.0
        assert first["location"] == "R10-M0-N03-J07"

    def test_kernel_fanout_within_partition(self, rng):
        emitter = make_emitter()
        log = emitter.emit([make_incident()], {5: Partition(16, 2)}, rng)
        from repro.machine.location import parse_location

        for loc in log.frame["location"]:
            mp = parse_location(loc).midplane_indices()[0]
            assert 16 <= mp < 18

    def test_ambient_storm_stays_at_location(self, rng):
        emitter = make_emitter()
        inc = Incident(
            time=50.0,
            fault_type=catalog_by_errcode("CARD_0411_CLOCK"),
            location="R04-M0-S",
            cause=IncidentCause.AMBIENT,
        )
        log = emitter.emit([inc], {}, rng)
        assert set(log.frame["location"]) == {"R04-M0-S"}

    def test_cascade_adds_companion_type(self, rng):
        emitter = StormEmitter(t_start=0.0, duration=86400.0,
                               noise_count_mean=0.0, cascade_probability=1.0)
        log = emitter.emit([make_incident()], {5: Partition(16, 2)}, rng)
        types = set(log.frame["errcode"])
        assert "_bgp_err_torus_retrans_fail" in types

    def test_storm_scale_shrinks(self, rng):
        small = StormEmitter(t_start=0.0, duration=86400.0, noise_count_mean=0.0,
                             cascade_probability=0.0, storm_scale=0.1)
        big = make_emitter()
        n_small = len(small.emit([make_incident()], {5: Partition(16, 2)},
                                 np.random.default_rng(1)))
        n_big = len(big.emit([make_incident()], {5: Partition(16, 2)},
                             np.random.default_rng(1)))
        assert n_small < n_big


class TestNoiseAndMerge:
    def test_noise_volume(self, rng):
        emitter = StormEmitter(t_start=0.0, duration=86400.0,
                               noise_count_mean=5000.0)
        log = emitter.emit([], {}, rng)
        assert 4500 < len(log) < 5500
        assert "FATAL" not in set(log.frame["severity"])

    def test_noise_severity_mix(self, rng):
        emitter = StormEmitter(t_start=0.0, duration=86400.0,
                               noise_count_mean=20000.0)
        log = emitter.emit([], {}, rng)
        counts = Counter(log.frame["severity"].tolist())
        assert counts["INFO"] > counts["WARN"] > counts["ERROR"]

    def test_recids_sequential_and_sorted(self, rng):
        emitter = StormEmitter(t_start=0.0, duration=86400.0,
                               noise_count_mean=500.0)
        log = emitter.emit([make_incident(t=40000.0)], {5: Partition(16, 2)}, rng)
        recids = log.frame["recid"]
        times = log.frame["event_time"]
        assert list(recids) == list(range(1, len(log) + 1))
        assert (np.diff(times) >= 0).all()

    def test_empty_everything(self, rng):
        emitter = make_emitter()
        log = emitter.emit([], {}, rng)
        assert len(log) == 0
