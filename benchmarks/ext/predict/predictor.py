"""Job-level interruption risk scoring.

A job's risk at start time combines the two §VI-D category-1 drivers:

* **location**: the armed hazard of the partition's midplanes
  (Obs. 6/9 — failures follow failures at the same place);
* **size**: the superlinear width effect (Obs. 10 — interruption
  proportion grows with midplane count).

Ablation switches zero either term, reproducing the paper's argument
that a predictor without location information wastes its alarms.
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.ext.predict.hazard import MidplaneHazard
from repro.machine.partition import Partition, parse_partition


@dataclass(frozen=True)
class RiskWeights:
    """Mixing weights and ablation switches for the risk score."""

    location_weight: float = 1.0
    size_weight: float = 0.02
    use_location: bool = True
    use_size: bool = True

    def ablated(self, location: bool = True, size: bool = True) -> "RiskWeights":
        return RiskWeights(
            location_weight=self.location_weight,
            size_weight=self.size_weight,
            use_location=location,
            use_size=size,
        )


@dataclass
class JobRiskPredictor:
    """Scores jobs and raises alarms above a threshold."""

    hazard: MidplaneHazard
    weights: RiskWeights = RiskWeights()
    threshold: float = 0.5

    def observe_event(self, time: float, midplane: int) -> None:
        """Feed one observed interruption-related fatal event."""
        self.hazard.observe(time, midplane)

    def score(
        self, start_time: float, partition: Partition | str, size_midplanes: int
    ) -> float:
        """Risk score for a job starting now on *partition*."""
        if isinstance(partition, str):
            partition = parse_partition(partition)
        score = 0.0
        if self.weights.use_location:
            score += self.weights.location_weight * self.hazard.partition_risk(
                start_time, partition.midplane_indices
            )
        if self.weights.use_size:
            score += self.weights.size_weight * size_midplanes
        return score

    def alarm(
        self, start_time: float, partition: Partition | str, size_midplanes: int
    ) -> bool:
        """True when the score crosses the alarm threshold."""
        return self.score(start_time, partition, size_midplanes) >= self.threshold
