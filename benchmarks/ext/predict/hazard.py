"""Per-midplane decreasing-hazard state.

Table IV's shape < 1 means the failure process is burstier than
Poisson: the instantaneous rate is highest right after a failure and
decays as the hardware stays quiet. The predictor exploits exactly
that: each observed interruption-related fatal event *re-arms* its
midplane, and the armed risk decays with the fitted Weibull hazard
profile ``h(Δt) ∝ (Δt/τ)^(k-1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.topology import NUM_MIDPLANES


@dataclass
class MidplaneHazard:
    """Online per-midplane hazard tracker.

    Parameters
    ----------
    shape:
        Weibull shape of the failure interarrival fit (< 1). Smaller
        values mean sharper post-failure risk spikes.
    tau:
        Hazard time scale in seconds; risk contributions are evaluated
        at ``max(Δt, floor)`` to keep the k−1 < 0 power finite.
    memory:
        How many most-recent events per midplane contribute.
    floor:
        Minimum Δt (seconds) used in the hazard evaluation.
    """

    shape: float = 0.6
    tau: float = 20_000.0
    memory: int = 4
    floor: float = 60.0
    _events: list[list[float]] = field(
        default_factory=lambda: [[] for _ in range(NUM_MIDPLANES)], repr=False
    )

    def __post_init__(self):
        if not 0.0 < self.shape:
            raise ValueError("shape must be positive")
        if self.tau <= 0 or self.floor <= 0:
            raise ValueError("tau and floor must be positive")

    def observe(self, time: float, midplane: int) -> None:
        """Record an interruption-related fatal event at a midplane."""
        if not 0 <= midplane < NUM_MIDPLANES:
            raise ValueError(f"midplane {midplane} out of range")
        events = self._events[midplane]
        events.append(time)
        if len(events) > self.memory:
            del events[0]

    def risk(self, time: float, midplane: int) -> float:
        """Armed hazard of one midplane at *time* (0 if never failed)."""
        total = 0.0
        for t in self._events[midplane]:
            dt = max(time - t, self.floor)
            if dt <= 0:
                continue
            total += (dt / self.tau) ** (self.shape - 1.0)
        return total

    def partition_risk(self, time: float, midplanes) -> float:
        """Summed hazard over a partition's midplanes."""
        return float(sum(self.risk(time, mp) for mp in midplanes))

    def last_event(self, midplane: int) -> float | None:
        events = self._events[midplane]
        return events[-1] if events else None

    def reset(self) -> None:
        for events in self._events:
            events.clear()
