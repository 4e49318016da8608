"""Unit tests for the per-midplane hazard tracker."""

import pytest

from benchmarks.ext.predict import MidplaneHazard


class TestObserveAndRisk:
    def test_no_events_zero_risk(self):
        h = MidplaneHazard()
        assert h.risk(1000.0, 5) == 0.0

    def test_risk_decays_with_quiet_time(self):
        h = MidplaneHazard(shape=0.5)
        h.observe(0.0, 3)
        assert h.risk(100.0, 3) > h.risk(10000.0, 3) > h.risk(1e6, 3) > 0.0

    def test_risk_localized(self):
        h = MidplaneHazard()
        h.observe(0.0, 3)
        assert h.risk(100.0, 4) == 0.0

    def test_repeat_events_accumulate(self):
        a, b = MidplaneHazard(), MidplaneHazard()
        a.observe(0.0, 3)
        b.observe(0.0, 3)
        b.observe(50.0, 3)
        assert b.risk(100.0, 3) > a.risk(100.0, 3)

    def test_memory_caps_contributions(self):
        h = MidplaneHazard(memory=2)
        for t in range(5):
            h.observe(float(t), 0)
        assert len(h._events[0]) == 2
        assert h.last_event(0) == 4.0

    def test_floor_prevents_blowup(self):
        h = MidplaneHazard(shape=0.3, floor=60.0)
        h.observe(100.0, 0)
        # evaluated at the event instant: finite thanks to the floor
        assert h.risk(100.0, 0) == pytest.approx((60.0 / h.tau) ** (0.3 - 1))

    def test_partition_risk_sums(self):
        h = MidplaneHazard()
        h.observe(0.0, 2)
        h.observe(0.0, 3)
        assert h.partition_risk(100.0, [2, 3]) == pytest.approx(
            h.risk(100.0, 2) + h.risk(100.0, 3)
        )

    def test_reset(self):
        h = MidplaneHazard()
        h.observe(0.0, 2)
        h.reset()
        assert h.risk(10.0, 2) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MidplaneHazard(shape=-1.0)
        with pytest.raises(ValueError):
            MidplaneHazard(tau=0.0)
        h = MidplaneHazard()
        with pytest.raises(ValueError):
            h.observe(0.0, 80)

    def test_constant_hazard_when_shape_one(self):
        h = MidplaneHazard(shape=1.0)
        h.observe(0.0, 0)
        assert h.risk(100.0, 0) == pytest.approx(h.risk(1e6, 0))
