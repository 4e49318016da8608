"""Classification of system failures vs application errors (§IV-B).

The COMPONENT field cannot separate the two — 75% of fatal events come
from KERNEL and none from APPLICATION — so the paper classifies by
*behaviour across the job join*:

* a type seen only at idle locations is a **system failure** (nobody's
  code was even running);
* a type that kills *different jobs at the same location* in a row is a
  **system failure** (the scheduler kept feeding jobs to broken nodes);
* a type that follows *the same execution file across locations* —
  killing the resubmitted job somewhere else while the old location
  runs new jobs unharmed — is an **application error** (Figure 2);
* each remaining type inherits the category of the labeled type whose
  occurrence vector it correlates with most strongly (Pearson, ref.
  [12]).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.events import FatalEventTable
from repro.frame import Frame
from repro.frame.column import factorize
from repro.stats.correlation import occurrence_matrix, pearson_matrix


class FailureOrigin(enum.Enum):
    SYSTEM = "system"
    APPLICATION = "application"


class ClassificationRule(enum.Enum):
    """Which §IV-B rule produced the label (diagnostics)."""

    IDLE_ONLY = "idle_only"
    SAME_LOCATION_MULTI_JOB = "same_location_multi_job"
    SAME_EXECUTABLE_MULTI_LOCATION = "same_executable_multi_location"
    CORRELATION = "correlation"
    DEFAULT_SYSTEM = "default_system"


@dataclass
class ClassificationResult:
    origins: dict[str, FailureOrigin] = field(default_factory=dict)
    rules: dict[str, ClassificationRule] = field(default_factory=dict)

    def system_types(self) -> list[str]:
        return sorted(
            e for e, o in self.origins.items() if o is FailureOrigin.SYSTEM
        )

    def application_types(self) -> list[str]:
        return sorted(
            e for e, o in self.origins.items() if o is FailureOrigin.APPLICATION
        )

    def origin_of(self, errcode: str) -> FailureOrigin:
        return self.origins.get(errcode, FailureOrigin.SYSTEM)


@dataclass(frozen=True)
class FailureClassifier:
    """Applies the behavioural rules, then the correlation fallback.

    ``correlation_bin`` sets the occurrence-vector bin width used for
    the Pearson fallback (one hour by default). ``resubmit_window``
    bounds how far apart two kills of the same executable may be and
    still count as the user resubmitting the same buggy code (§IV-C) —
    kills of one code days apart are independent strikes, not a chase.
    """

    correlation_bin: float = 3600.0
    resubmit_window: float = 24 * 3600.0

    def classify(
        self,
        events: FatalEventTable,
        pairs: Frame,
        type_cases: Frame,
        nonfatal_types: frozenset[str] | set[str] = frozenset(),
        clean_runs=None,
    ) -> ClassificationResult:
        """Label every ERRCODE in *events*.

        *pairs* is the matcher's (event, job) interruption table;
        *type_cases* its per-type case counts. Types already identified
        as non-fatal alarms (§IV-A) are hardware-side by construction
        and pinned to SYSTEM. *clean_runs* (a
        :class:`repro.core.jobindex.JobMidplaneIndex` over the completed
        runs) enables Figure 2's second condition — the old location
        must run other jobs unharmed before a type counts as following
        the executable.
        """
        result = ClassificationResult()
        evidence_b, evidence_c, sticky = _behavioural_evidence(
            pairs, clean_runs, self.resubmit_window
        )

        for row in type_cases.to_rows():
            e = row["errcode"]
            if e in nonfatal_types:
                result.origins[e] = FailureOrigin.SYSTEM
                result.rules[e] = ClassificationRule.DEFAULT_SYSTEM
                continue
            if row["case1"] == 0 and row["case3"] == 0:
                result.origins[e] = FailureOrigin.SYSTEM
                result.rules[e] = ClassificationRule.IDLE_ONLY
                continue
            b, c = evidence_b.get(e, 0), evidence_c.get(e, 0)
            if sticky.get(e, False):
                # one location racked up 3+ separate kills across
                # different codes — unambiguous broken hardware, the
                # paper's L1/DDR/FS-config/link-card signature
                result.origins[e] = FailureOrigin.SYSTEM
                result.rules[e] = ClassificationRule.SAME_LOCATION_MULTI_JOB
                continue
            if b == 0 and c == 0:
                continue  # correlation fallback decides
            # Application verdict: the type follows an executable to a
            # new location within one resubmission window while the old
            # location runs other jobs unharmed (both Figure-2 halves).
            if c > 0 and c >= b:
                result.origins[e] = FailureOrigin.APPLICATION
                result.rules[e] = ClassificationRule.SAME_EXECUTABLE_MULTI_LOCATION
            else:
                result.origins[e] = FailureOrigin.SYSTEM
                result.rules[e] = ClassificationRule.SAME_LOCATION_MULTI_JOB
        self._correlation_fallback(events, result)
        return result

    # ------------------------------------------------------------------

    def _correlation_fallback(
        self, events: FatalEventTable, result: ClassificationResult
    ) -> None:
        frame = events.frame
        codes, uniques = factorize(frame["errcode"])
        labeled_idx = [
            i for i, e in enumerate(uniques) if e in result.origins
        ]
        unlabeled_idx = [
            i for i, e in enumerate(uniques) if e not in result.origins
        ]
        if not unlabeled_idx:
            return
        if not labeled_idx:
            for i in unlabeled_idx:
                result.origins[uniques[i]] = FailureOrigin.SYSTEM
                result.rules[uniques[i]] = ClassificationRule.DEFAULT_SYSTEM
            return
        occ = occurrence_matrix(
            frame["event_time"], codes, len(uniques), self.correlation_bin
        )
        corr = pearson_matrix(occ)
        for i in unlabeled_idx:
            row = corr[i, labeled_idx]
            j = int(np.argmax(row))
            if row[j] <= 0.0:
                result.origins[uniques[i]] = FailureOrigin.SYSTEM
                result.rules[uniques[i]] = ClassificationRule.DEFAULT_SYSTEM
            else:
                best = uniques[labeled_idx[j]]
                result.origins[uniques[i]] = result.origins[best]
                result.rules[uniques[i]] = ClassificationRule.CORRELATION


def _behavioural_evidence(
    pairs: Frame, clean_runs=None, resubmit_window: float = 24 * 3600.0
) -> tuple[dict[str, int], dict[str, int], dict[str, bool]]:
    """Per-type rule-B counts, rule-C counts, and sticky flags.

    Rule B evidence: midplanes where the type killed two *different*
    codes back to back (distinct execution files, distinct events, no
    clean run in between — a resubmission of the same buggy code dying
    on the same nodes is Figure 2's application pattern, not broken
    hardware). Rule C evidence: executables the type followed across
    midplanes; with *clean_runs*, Figure 2's second condition also
    requires the earlier midplane to run another job unharmed in the
    window. The sticky flag marks types with a midplane that absorbed
    three or more separate kills across at least two codes.
    """
    by_location: dict[tuple[str, int], list[tuple[float, str, int]]] = defaultdict(list)
    by_executable: dict[tuple[str, str], list[tuple[float, int]]] = defaultdict(list)
    for r in pairs.to_rows():
        by_location[(r["errcode"], int(r["mp"]))].append(
            (float(r["event_time"]), r["executable"], int(r["event_id"]))
        )
        by_executable[(r["errcode"], r["executable"])].append(
            (float(r["event_time"]), int(r["mp"]))
        )
    evidence_b: dict[str, int] = defaultdict(int)
    evidence_c: dict[str, int] = defaultdict(int)
    sticky: dict[str, bool] = defaultdict(bool)
    for (e, mp), kills in by_location.items():
        kills.sort()
        qualified_pair = False
        for (t1, exe1, ev1), (t2, exe2, ev2) in zip(kills, kills[1:]):
            # broken-hardware signature (§IV-B): *different* codes dying
            # back-to-back on the same nodes, in *separate* events (one
            # shared-FS event with several victims is propagation), with
            # no job completing cleanly there in between (the scheduler
            # "continues to assign new jobs to the failed nodes")
            if exe1 == exe2 or ev1 == ev2:
                continue
            if clean_runs is not None and clean_runs.any_between(mp, t1, t2):
                continue
            qualified_pair = True
            break
        if qualified_pair:
            evidence_b[e] += 1
            if (
                len({ev for _, _, ev in kills}) >= 3
                and len({exe for _, exe, _ in kills}) >= 2
            ):
                sticky[e] = True
    for (e, _exe), kills in by_executable.items():
        kills.sort()
        if len({mp for _, mp in kills}) < 2:
            continue
        if clean_runs is None:
            evidence_c[e] += 1
            continue
        done = False
        for i in range(len(kills)):
            if done:
                break
            t1, mp1 = kills[i]
            for t2, mp2 in kills[i + 1 :]:
                if t2 - t1 > resubmit_window:
                    break
                if mp1 != mp2 and clean_runs.any_overlapping(mp1, t1, t2):
                    evidence_c[e] += 1
                    done = True
                    break
    return dict(evidence_b), dict(evidence_c), dict(sticky)
