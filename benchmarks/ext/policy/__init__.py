"""Operational policies derived from the co-analysis (§VII).

Two actionable policy families the paper's discussion sketches:

* :mod:`benchmarks.ext.policy.checkpoint` — checkpoint scheduling:
  periodic (Young-interval) baselines against the observation-guided
  policy (defer the first checkpoint for codes with application-error
  history, scale cadence with job width), scored by lost work on the
  real interruption record;
* :mod:`benchmarks.ext.failure_aware` — the CiFTS-style allocation
  policy that avoids recently failed partitions.
"""

from benchmarks.ext.policy.checkpoint import (
    CheckpointOutcome,
    CheckpointPolicy,
    HistoryAwarePolicy,
    NoCheckpointPolicy,
    PeriodicPolicy,
    SizeAwareYoungPolicy,
    evaluate_checkpoint_policy,
)

__all__ = [
    "CheckpointPolicy",
    "NoCheckpointPolicy",
    "PeriodicPolicy",
    "SizeAwareYoungPolicy",
    "HistoryAwarePolicy",
    "CheckpointOutcome",
    "evaluate_checkpoint_policy",
]
