"""The co-analysis methodology (§IV) and its downstream analyses (§V–VI).

Pipeline stages, in the order of Figure 1:

1. :mod:`repro.core.filtering` — temporal, spatial, and
   causality-related filtering of FATAL RAS records (refs. [12], [9],
   [7]), then the paper's novel **job-related filtering** (§IV-C);
2. :mod:`repro.core.matching` — matching fatal events to job
   terminations by time and location;
3. :mod:`repro.core.identify` — identification of interruption-related
   fatal event types via the case-1/2/3 rules (§IV-A);
4. :mod:`repro.core.classify` — separation of system failures from
   application errors, with Pearson-correlation assignment of unlabeled
   types (§IV-B);
5. :mod:`repro.core.characteristics`, :mod:`repro.core.bursts`,
   :mod:`repro.core.propagation`, :mod:`repro.core.vulnerability` —
   the failure and job-interruption characteristics of §V and §VI;
6. :mod:`repro.core.observations` — the twelve numbered observations;
7. :mod:`repro.core.pipeline` — :class:`CoAnalysis`, the one-call
   orchestration, and :mod:`repro.core.report` for text rendering.
"""

from repro.core.events import FatalEventTable, fatal_event_table
from repro.core.filtering import (
    CausalityFilter,
    FilterChain,
    JobRelatedFilter,
    SpatialFilter,
    TemporalFilter,
)
from repro.core.matching import (
    DEFAULT_TOLERANCE,
    InterruptionMatcher,
    MatchResult,
)
from repro.core.identify import EventTypeIdentifier, TypeBehavior
from repro.core.classify import FailureClassifier, FailureOrigin
from repro.core.pipeline import CoAnalysis, CoAnalysisResult, StageFailure

__all__ = [
    "FatalEventTable",
    "fatal_event_table",
    "TemporalFilter",
    "SpatialFilter",
    "CausalityFilter",
    "JobRelatedFilter",
    "FilterChain",
    "DEFAULT_TOLERANCE",
    "InterruptionMatcher",
    "MatchResult",
    "EventTypeIdentifier",
    "TypeBehavior",
    "FailureClassifier",
    "FailureOrigin",
    "CoAnalysis",
    "CoAnalysisResult",
    "StageFailure",
]
