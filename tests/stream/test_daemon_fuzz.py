"""Kill-and-resume fuzzing: seeded IO fault schedules × kill points.

Every combo runs the daemon over growing files under a seeded
:class:`FaultPlan` (EIO, short reads, stalls, rotations), kills it with
an :class:`InjectedCrash` at a parametrized point, resumes a fresh
``DaemonLoop`` from whatever checkpoint survived — reusing the SAME
``FaultyFS`` so the fault schedule keeps firing across the crash — and
proves the final result is bit-identical to the batch pipeline over the
fully re-read files. 30 phase-kill combos plus 3 mid-IO-op kills.
"""

import pytest

from repro.core.equivalence import diff_results
from repro.faults.io import (
    FaultKind,
    FaultPlan,
    FaultyFS,
    InjectedCrash,
    IOFault,
)
from repro.stream.daemon import DaemonLoop
from tests.stream.test_daemon import NO_SLEEP, GrowingTrace, daemon_config

PHASES = ("poll", "ingested", "pre_checkpoint", "post_checkpoint", "post_flush")
KILL_CYCLES = (2, 4)
FAULT_SEEDS = (101, 202, 303)


@pytest.fixture(scope="module")
def batch_ref(tmp_path_factory):
    """One batch reference for every combo (the trace is seeded)."""
    return GrowingTrace(tmp_path_factory.mktemp("ref")).batch()


def one_shot(phase_target, cycle_target):
    state = {"armed": True}

    def hook(phase, cycle):
        if state["armed"] and phase == phase_target and cycle >= cycle_target:
            state["armed"] = False
            raise InjectedCrash(cycle, phase_target)

    return hook


def run_combo(tmp_path, batch_ref, fs, crash_hook):
    """Grow/crash/resume one daemon and demand batch bit-identity."""
    gt = GrowingTrace(tmp_path)
    config = daemon_config(tmp_path, gt)
    loop = DaemonLoop(config, fs=fs, sleep=NO_SLEEP, crash_hook=crash_hook)
    crashed = False
    try:
        while not gt.done:
            gt.grow()
            loop.cycle()
    except InjectedCrash:
        crashed = True
    assert crashed, "the kill point never fired"
    resumed = DaemonLoop(config, fs=fs, sleep=NO_SLEEP)
    while not gt.done:
        gt.grow()
        resumed.cycle()
    # settle: scheduled faults are consume-once, so a few extra polls
    # let any degraded feed catch up on its backlog
    for _ in range(6):
        resumed.cycle()
    assert diff_results(resumed.result(), batch_ref) == []
    assert resumed.bls.late_dropped == {"ras": 0, "job": 0}
    return resumed


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
@pytest.mark.parametrize("kill_cycle", KILL_CYCLES)
@pytest.mark.parametrize("phase", PHASES)
def test_kill_and_resume_bit_identical(
    tmp_path, batch_ref, phase, kill_cycle, fault_seed
):
    fs = FaultyFS(
        FaultPlan.generate(fault_seed, n_faults=6, op_range=(1, 120)),
        sleep=NO_SLEEP,
    )
    run_combo(tmp_path, batch_ref, fs, one_shot(phase, kill_cycle))


@pytest.mark.parametrize("crash_op", (5, 17, 29))
def test_crash_mid_io_op_resumes(tmp_path, batch_ref, crash_op):
    """The kill can land inside the IO layer itself — mid-poll, between
    a stat and its read — not just at the loop's named phases."""
    plan = FaultPlan.generate(7, n_faults=4, op_range=(1, 80))
    plan.faults.append(IOFault(op_index=crash_op, kind=FaultKind.CRASH))
    fs = FaultyFS(plan, sleep=NO_SLEEP)
    run_combo(tmp_path, batch_ref, fs, crash_hook=None)
