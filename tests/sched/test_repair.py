"""Unit tests for breakage bookkeeping."""

import numpy as np
import pytest

from repro.faults.catalog import STICKY_TYPES
from repro.sched import BreakageTable


@pytest.fixture
def rng():
    return np.random.default_rng(2)


@pytest.fixture
def table():
    return BreakageTable()


class TestLifecycle:
    def test_open_and_get(self, table, rng):
        b = table.open(5, STICKY_TYPES[0], 100.0, chain_id=1, rng=rng)
        assert table.get(5) is b
        assert table.get(6) is None

    def test_close_removes(self, table, rng):
        b = table.open(5, STICKY_TYPES[0], 100.0, 1, rng)
        table.close(b)
        assert table.get(5) is None
        assert not b.alive

    def test_replacement(self, table, rng):
        b1 = table.open(5, STICKY_TYPES[0], 100.0, 1, rng)
        b2 = table.open(5, STICKY_TYPES[1], 200.0, 2, rng)
        assert table.get(5) is b2
        table.close(b1)  # closing the stale one leaves the new one
        assert table.get(5) is b2


class TestDetection:
    def test_record_kill_triggers_at_max(self, table, rng):
        b = table.open(5, STICKY_TYPES[0], 0.0, 1, rng)
        fired = False
        for _ in range(b.max_kills - 1):
            fired = b.record_kill()
        assert fired
        assert b.kills == b.max_kills

    def test_max_kills_at_least_two(self, table, rng):
        for mp in range(40):
            b = table.open(mp, STICKY_TYPES[0], 0.0, mp, rng)
            assert b.max_kills >= 2


class TestHardnessMixture:
    def test_fix_probability_bimodal(self, table, rng):
        probs = {
            table.open(mp, STICKY_TYPES[0], 0.0, mp, rng).reboot_fix_probability
            for mp in range(60)
        }
        assert probs <= {table.easy_fix_probability,
                         table.stubborn_fix_probability}
        assert len(probs) == 2  # both kinds appear in 60 draws

    def test_selection_effect(self, rng):
        """Surviving one reboot makes survival of the next more likely —
        the Figure 7 category-1 k=2 peak mechanism."""
        table = BreakageTable()
        first_survival, second_given_first = [], []
        for mp in range(2000):
            b = table.open(mp % 80, STICKY_TYPES[0], 0.0, mp, rng)
            s1 = not b.roll_reboot_fix(rng)
            first_survival.append(s1)
            if s1:
                second_given_first.append(not b.roll_reboot_fix(rng))
        p1 = np.mean(first_survival)
        p2 = np.mean(second_given_first)
        assert p2 > p1
