"""Cross-component invariants of generated traces.

These are the properties the co-analysis methodology *relies on*; if
the simulator violated them the reproduction would be circular or
meaningless.
"""

import numpy as np
import pytest

from repro.faults.catalog import FAULT_CATALOG, FaultClass
from repro.faults.injector import IncidentCause
from repro.machine.location import parse_location
from repro.machine.partition import parse_partition
from repro.simulate import CalibrationProfile, IntrepidSimulation


@pytest.fixture(scope="module")
def trace():
    return IntrepidSimulation(CalibrationProfile(seed=31, scale=0.05)).run()


class TestRasLogInvariants:
    def test_fatal_errcodes_come_from_catalog(self, trace):
        known = {t.errcode for t in FAULT_CATALOG}
        fatal_codes = set(trace.ras_log.fatal().frame["errcode"])
        assert fatal_codes <= known

    def test_all_locations_parse(self, trace):
        for loc in set(trace.ras_log.frame["location"]):
            parse_location(loc)  # must not raise

    def test_every_incident_has_records(self, trace):
        fatal_codes = set(trace.ras_log.fatal().frame["errcode"])
        for inc in trace.ground_truth.incidents:
            assert inc.errcode in fatal_codes

    def test_fatal_record_times_at_or_after_incidents(self, trace):
        first_by_code = {}
        fatal = trace.ras_log.fatal().frame
        for code, t in zip(fatal["errcode"], fatal["event_time"]):
            first_by_code.setdefault(code, t)
        for inc in trace.ground_truth.incidents:
            assert first_by_code[inc.errcode] <= inc.time + 1e-6


class TestJobLogInvariants:
    def test_job_locations_are_partitions(self, trace):
        for loc in set(trace.job_log.frame["location"]):
            p = parse_partition(loc)
            assert p.size >= 1

    def test_interrupted_jobs_end_at_incident_times(self, trace):
        ends = {
            int(r["job_id"]): float(r["end_time"])
            for r in trace.job_log.frame.to_rows()
        }
        for inc in trace.ground_truth.incidents:
            for jid in inc.interrupted_job_ids:
                assert ends[jid] == pytest.approx(inc.time, abs=1e-6)

    def test_interruption_location_inside_victim_partition(self, trace):
        partitions = trace.job_partitions
        for inc in trace.ground_truth.incidents:
            if not inc.interrupted_job_ids:
                continue
            loc = parse_location(inc.location)
            hit = any(
                partitions[jid].covers_midplane(i)
                for jid in inc.interrupted_job_ids
                if jid in partitions
                for i in loc.midplane_indices()
            )
            assert hit, f"{inc.errcode} at {inc.location} touches no victim"


class TestMethodologyPreconditions:
    def test_ambient_events_never_colocated_with_running_jobs(self, trace):
        """The §IV-A undetermined types exist because service-hardware
        faults strike where no job runs; the simulator must honor the
        construction or identification would be circular."""
        frame = trace.job_log.frame
        starts = frame["start_time"]
        ends = frame["end_time"]
        locations = [parse_partition(l) for l in frame["location"]]
        violations = 0
        ambients = [
            i
            for i in trace.ground_truth.incidents
            if i.cause is IncidentCause.AMBIENT
        ]
        for inc in ambients:
            mp = parse_location(inc.location).midplane_indices()[0]
            running = (
                (starts <= inc.time)
                & (ends > inc.time)
            )
            for idx in np.flatnonzero(running):
                if locations[idx].covers_midplane(mp):
                    violations += 1
                    break
        assert violations <= max(1, 0.02 * len(ambients))

    def test_nonfatal_alarms_never_interrupt(self, trace):
        for inc in trace.ground_truth.incidents:
            if inc.fault_type.fclass is FaultClass.NONFATAL_FATAL:
                assert not inc.interrupted_job_ids

    def test_redundant_incidents_share_chain_or_executable(self, trace):
        """Sticky refires carry the chain id of their breakage."""
        for inc in trace.ground_truth.incidents:
            if inc.cause is IncidentCause.STICKY_REFIRE:
                assert inc.chain_id >= 0
