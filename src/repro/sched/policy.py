"""Partition allocation policy (§V-B's observed placement behaviour).

The paper's co-analysis attributes Figure 4's midplane skew to
"inconsistent scheduling policies for different midplanes":

* midplanes 1–2 host many short, small jobs;
* the scheduler prefers to put small jobs on midplanes 65–80, keeping
  the other 64 midplanes free for larger jobs;
* midplanes 33–64 end up carrying the wide-job workload.

This policy reproduces that behaviour with three preference regions
(machine indices, 0-based): small jobs → [64, 80) then [0, 4); medium
jobs → [4, 32); wide jobs → [32, 64). Resubmitted jobs return to their
previous partition with probability ``affinity`` when it is free — the
57.4% same-location rate of Observation 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.machine.partition import Partition, PartitionPool

#: preference regions by job size in midplanes
SMALL_MAX = 2
MEDIUM_MAX = 16
SMALL_REGIONS = ((64, 80), (0, 4))
MEDIUM_REGIONS = ((4, 32), (64, 80))
WIDE_REGIONS = ((32, 64),)


@dataclass
class IntrepidPolicy:
    """Chooses a free partition for a job request."""

    pool: PartitionPool = field(default_factory=PartitionPool)
    affinity: float = 0.75

    def choose(
        self,
        size_midplanes: int,
        free: np.ndarray,
        rng: np.random.Generator,
        preferred: Partition | None = None,
        now: float = 0.0,
    ) -> Partition | None:
        """A free partition for a job of *size_midplanes*, or None.

        *free* is the boolean availability vector over the 80 midplanes.
        *preferred* (the partition of the job's previous run) wins with
        probability ``affinity`` whenever it is entirely free. *now* is
        accepted for interface compatibility with time-aware policies
        that wrap this one (the failure-aware policy of the §VII
        extension benchmarks, ``benchmarks/ext/failure_aware.py``).
        """
        fit = self.pool.fit_size(size_midplanes)
        if (
            preferred is not None
            and preferred.size == fit
            and self._is_free(preferred, free)
            and rng.random() < self.affinity
        ):
            return preferred
        candidates = [p for p in self.pool.candidates(fit) if self._is_free(p, free)]
        if not candidates:
            return None
        scores = np.array([self._region_score(p, fit) for p in candidates])
        best = scores.min()
        best_candidates = [p for p, s in zip(candidates, scores) if s == best]
        return best_candidates[int(rng.integers(0, len(best_candidates)))]

    @staticmethod
    def _is_free(partition: Partition, free: np.ndarray) -> bool:
        return bool(free[partition.start : partition.start + partition.size].all())

    @staticmethod
    def _region_score(partition: Partition, size: int) -> int:
        """Lower is better: 0/1 for the preferred regions, 2 otherwise."""
        if size <= SMALL_MAX:
            regions = SMALL_REGIONS
        elif size <= MEDIUM_MAX:
            regions = MEDIUM_REGIONS
        else:
            regions = WIDE_REGIONS
        span = range(partition.start, partition.start + partition.size)
        for rank, (lo, hi) in enumerate(regions):
            if all(lo <= i < hi for i in span):
                return rank
        # Wide partitions rarely fit inside one region; prefer overlap.
        lo, hi = regions[0]
        if any(lo <= i < hi for i in span):
            return len(regions)
        return len(regions) + 1
