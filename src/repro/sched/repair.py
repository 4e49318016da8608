"""Sticky breakage bookkeeping (§IV-B/C mechanics).

A sticky system failure leaves a *latent breakage* on one midplane. The
scheduler does not know about it ("the scheduler has no knowledge of
this fatal event and continues to assign new jobs to the failed
nodes"), so newly placed jobs keep dying there until either

* a partition reboot happens to clear it ("reboot before execution"
  fixes the easy half of breakages — which is why Figure 7's category-1
  risk is *lower* at k=1 than k=2), or
* the breakage is detected — after enough kills or enough wall-clock
  time — and the midplane is drained for repair (which is why the risk
  falls again at k=3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.faults.catalog import FaultType


@dataclass
class Breakage:
    """One latent hardware breakage on a midplane."""

    breakage_id: int
    midplane: int
    fault_type: FaultType
    opened: float
    chain_id: int
    #: probability a partition reboot clears this breakage
    reboot_fix_probability: float
    #: kills (including the opening one) that trigger detection
    max_kills: int
    kills: int = 1
    alive: bool = True

    def roll_reboot_fix(self, rng: np.random.Generator) -> bool:
        """Does reboot-before-execution clear this breakage?"""
        return rng.random() < self.reboot_fix_probability

    def record_kill(self) -> bool:
        """Register another interrupted job; True when detection fires."""
        self.kills += 1
        return self.kills >= self.max_kills


@dataclass
class BreakageTable:
    """Live breakages indexed by midplane.

    Breakage hardness is bimodal: an ``easy_share`` of breakages is
    cleared by almost any reboot, the rest are stubborn. Conditioning on
    a breakage surviving one reboot therefore raises the chance it
    survives the next — the selection effect behind Figure 7's
    category-1 peak at k=2.
    """

    easy_share: float = 0.55
    easy_fix_probability: float = 0.9
    stubborn_fix_probability: float = 0.02
    max_kills_mean: float = 4.0
    _by_midplane: dict[int, Breakage] = field(default_factory=dict)
    _ids: itertools.count = field(default_factory=itertools.count)

    def open(
        self,
        midplane: int,
        fault_type: FaultType,
        time: float,
        chain_id: int,
        rng: np.random.Generator,
    ) -> Breakage:
        """Open a breakage (replacing any previous one on the midplane)."""
        easy = rng.random() < self.easy_share
        fix_p = self.easy_fix_probability if easy else self.stubborn_fix_probability
        max_kills = max(2, 1 + int(rng.poisson(self.max_kills_mean - 1)))
        b = Breakage(
            breakage_id=next(self._ids),
            midplane=midplane,
            fault_type=fault_type,
            opened=time,
            chain_id=chain_id,
            reboot_fix_probability=fix_p,
            max_kills=max_kills,
        )
        self._by_midplane[midplane] = b
        return b

    def get(self, midplane: int) -> Breakage | None:
        b = self._by_midplane.get(midplane)
        return b if b is not None and b.alive else None

    def close(self, breakage: Breakage) -> None:
        """Remove a breakage (fixed by reboot or sent to repair)."""
        breakage.alive = False
        current = self._by_midplane.get(breakage.midplane)
        if current is breakage:
            del self._by_midplane[breakage.midplane]

    def __len__(self) -> int:
        return len(self._by_midplane)
