"""Identification of interruption-related fatal events (§IV-A).

For every ERRCODE the matcher tabulates how its events fell into the
three cases (interrupts a job / no job at location / jobs running but
unharmed). The paper's rules, with the natural extension for the
case-1-only pattern its rule list leaves implicit:

============================  ===============================
observed cases                verdict
============================  ===============================
case 1 (± case 2), no case 3  interruption-related
case 3 (± case 2), no case 1  non-fatal for applications
case 2 only                   undetermined (idle locations)
case 1 and case 3 together    undetermined (mixed evidence)
============================  ===============================

Undetermined-idle types are *pessimistically* treated as
interruption-related downstream, as the paper does (following [11]).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.frame import Frame


class TypeBehavior(enum.Enum):
    """Verdict for one ERRCODE type."""

    INTERRUPTION_RELATED = "interruption_related"
    NONFATAL = "nonfatal"
    UNDETERMINED_IDLE = "undetermined_idle"
    UNDETERMINED_MIXED = "undetermined_mixed"


@dataclass
class IdentificationResult:
    """Per-type verdicts plus the §IV-A headline counts."""

    behaviors: dict[str, TypeBehavior] = field(default_factory=dict)

    def count(self, behavior: TypeBehavior) -> int:
        return sum(1 for b in self.behaviors.values() if b is behavior)

    def nonfatal_types(self) -> list[str]:
        return sorted(
            e for e, b in self.behaviors.items() if b is TypeBehavior.NONFATAL
        )

    def undetermined_types(self) -> list[str]:
        return sorted(
            e
            for e, b in self.behaviors.items()
            if b
            in (TypeBehavior.UNDETERMINED_IDLE, TypeBehavior.UNDETERMINED_MIXED)
        )


@dataclass(frozen=True)
class EventTypeIdentifier:
    """Applies the case rules to the matcher's type-case table."""

    def identify(self, type_cases: Frame) -> IdentificationResult:
        """*type_cases* carries errcode / case1 / case2 / case3 counts."""
        result = IdentificationResult()
        for row in type_cases.to_rows():
            c1, c2, c3 = row["case1"], row["case2"], row["case3"]
            if c1 > 0 and c3 == 0:
                verdict = TypeBehavior.INTERRUPTION_RELATED
            elif c3 > 0 and c1 == 0:
                verdict = TypeBehavior.NONFATAL
            elif c1 > 0 and c3 > 0:
                verdict = TypeBehavior.UNDETERMINED_MIXED
            else:
                verdict = TypeBehavior.UNDETERMINED_IDLE
            result.behaviors[row["errcode"]] = verdict
        return result
