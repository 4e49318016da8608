"""Seeded corruption injection for written RAS/job log files.

The study's 237-day, 2M-record RAS export is exactly the kind of
multi-source production log that arrives dirty. This module damages a
*written* log the way real pipelines do — truncated and blank lines,
stray delimiters, invalid timestamps, vocabulary drift in severity /
component / ERRCODE tokens, replayed (duplicate) recids, out-of-order
event times, and raw bytes that were never valid UTF-8 — while keeping
**ground-truth bookkeeping** of every line it damaged and with which
:class:`~repro.logs.quarantine.DefectClass`.

The injected defects are constructed so each bad line classifies to
exactly its intended defect class under the readers' precedence rules
(see :class:`~repro.logs.quarantine.DefectClass`), and so no clean line
is ever collaterally damaged:

* out-of-order timestamps are only planted on rows whose predecessor
  stays clean, and cross-record checks in the readers compare against
  accepted rows only, so the damage never cascades;
* duplicate recids are *insertions* — a byte-exact copy of a clean row
  placed right after it — so the original row stays accepted and the
  copy is the quarantined one;
* truncation removes at least one delimiter (fewer cells), while
  garbling adds one (more cells), keeping the two distinguishable.

That discipline is what makes the corruption fuzz gate meaningful: a
quarantine-mode parse of the damaged file must recover every clean row
bit-identical to the uncorrupted parse, with report counts equal to
the ground truth recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.logs.quarantine import DefectClass

__all__ = [
    "RAS_DEFECT_CLASSES",
    "JOB_DEFECT_CLASSES",
    "InjectedDefect",
    "CorruptionResult",
    "LogCorruptor",
]

#: everything the RAS readers can classify — the full taxonomy
RAS_DEFECT_CLASSES = (
    DefectClass.ENCODING_GARBAGE,
    DefectClass.BLANK_LINE,
    DefectClass.TRUNCATED_LINE,
    DefectClass.GARBLED_DELIMITER,
    DefectClass.BAD_FIELD,
    DefectClass.INVALID_TIMESTAMP,
    DefectClass.UNKNOWN_SEVERITY,
    DefectClass.UNKNOWN_COMPONENT,
    DefectClass.UNKNOWN_ERRCODE,
    DefectClass.DUPLICATE_RECID,
    DefectClass.OUT_OF_ORDER_TIME,
)

#: job logs carry no RAS vocabulary or recid ordering, so damage there
#: is structural and typed-field only
JOB_DEFECT_CLASSES = (
    DefectClass.ENCODING_GARBAGE,
    DefectClass.BLANK_LINE,
    DefectClass.TRUNCATED_LINE,
    DefectClass.GARBLED_DELIMITER,
    DefectClass.BAD_FIELD,
)

# disk-layout field indices of the RAS text format (see
# repro.logs.textio._DISK_COLUMNS)
_RAS_RECID_IDX = 0
_RAS_COMPONENT_IDX = 2
_RAS_ERRCODE_IDX = 4
_RAS_SEVERITY_IDX = 5
_RAS_TIME_IDX = 6

# realistic-looking damaged tokens; every entry is guaranteed to fail
# the corresponding reader check
_BAD_TIMESTAMPS = (
    "0000-00-00-00.00.00.000000",
    "not-a-timestamp",
    "2008-04-14 15:08:12",
    "2008-02-31-99.99.99.999999",
)
_BAD_SEVERITIES = ("CRITICAL", "SEV5", "fatal", "PANIC")
_BAD_COMPONENTS = ("PHANTOM", "QUANTUM", "kernel", "CMCS")
_BAD_ERRCODES = ("???", "err code", "<nil>", "0x1F!!")
_BAD_INTS = ("0x1A2B", "12.5", "recid", "-")
_BAD_FLOATS = ("not-a-number", "1.2.3", "--", "")
_GARBAGE_BYTES = b"\xff\xfe"


def _pick(rng: np.random.Generator, seq):
    return seq[int(rng.integers(0, len(seq)))]


@dataclass(frozen=True)
class InjectedDefect:
    """One damaged line in the corrupted output."""

    line_no: int  # 1-based physical line number in the corrupted file
    defect: DefectClass
    source_row: int | None  # original data-row index lost; None = insertion


@dataclass(frozen=True)
class CorruptionResult:
    """A corrupted log plus the ground truth of what was damaged."""

    header: str
    lines: tuple[bytes, ...]  # corrupted data lines, utf-8 (+ raw garbage)
    injected: tuple[InjectedDefect, ...]
    num_source_rows: int

    @property
    def ground_truth(self) -> dict[DefectClass, int]:
        """Exact per-class injected counts (what a report must match)."""
        counts: dict[DefectClass, int] = {}
        for inj in self.injected:
            counts[inj.defect] = counts.get(inj.defect, 0) + 1
        return counts

    @property
    def num_injected(self) -> int:
        return len(self.injected)

    def damaged_source_rows(self) -> frozenset[int]:
        """Original data-row indices that no longer parse clean."""
        return frozenset(
            inj.source_row for inj in self.injected
            if inj.source_row is not None
        )

    def clean_row_mask(self) -> np.ndarray:
        """Boolean mask over original rows: True where still clean."""
        mask = np.ones(self.num_source_rows, dtype=bool)
        for row in self.damaged_source_rows():
            mask[row] = False
        return mask

    def to_bytes(self) -> bytes:
        out = [self.header.encode("utf-8")]
        out.extend(self.lines)
        return b"\n".join(out) + b"\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    def summary(self) -> str:
        lines = [
            f"{self.num_source_rows} source rows,"
            f" {self.num_injected} defects injected:"
        ]
        for defect, n in sorted(
            self.ground_truth.items(), key=lambda kv: kv[0].value
        ):
            lines.append(f"  {defect.value:<20} {n:>6}")
        return "\n".join(lines)


@dataclass
class LogCorruptor:
    """Seeded injector of cataloged defects into a written log.

    ``rate`` is the fraction of data rows damaged (insertions count
    toward it); defect classes are assigned round-robin over ``classes``
    before shuffling, so every requested class appears whenever
    ``rate × rows ≥ len(classes)``.
    """

    seed: int = 0
    rate: float = 0.05
    kind: str = "ras"  # "ras" | "job"
    classes: tuple[DefectClass, ...] | None = None

    def __post_init__(self):
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must be within [0, 1]")
        if self.kind not in ("ras", "job"):
            raise ValueError(f"kind must be 'ras' or 'job', got {self.kind!r}")
        allowed = (
            RAS_DEFECT_CLASSES if self.kind == "ras" else JOB_DEFECT_CLASSES
        )
        if self.classes is None:
            self.classes = allowed
        else:
            self.classes = tuple(self.classes)
            bad = [c for c in self.classes if c not in allowed]
            if bad:
                raise ValueError(
                    f"classes {[c.value for c in bad]} not injectable"
                    f" into {self.kind!r} logs"
                )

    # ------------------------------------------------------------------

    def corrupt_file(
        self, src: str | Path, dst: str | Path
    ) -> CorruptionResult:
        """Corrupt the log at *src*, writing the damaged copy to *dst*."""
        result = self.corrupt_text(Path(src).read_text(encoding="utf-8"))
        result.write(dst)
        return result

    def corrupt_text(self, text: str) -> CorruptionResult:
        """Corrupt an in-memory log written by the text serializers."""
        raw_lines = text.split("\n")
        header = raw_lines[0]
        data = [line for line in raw_lines[1:] if line]
        n = len(data)
        n_bad = int(round(self.rate * n))
        if self.rate > 0 and n and n_bad == 0:
            n_bad = 1

        assign = [self.classes[i % len(self.classes)] for i in range(n_bad)]
        order = np.random.default_rng(self.seed).permutation(n_bad)
        assign = [assign[int(i)] for i in order]
        rng = np.random.default_rng(self.seed + 1)

        plan = self._plan(assign, n, rng)
        return self._apply(header, data, plan, rng)

    # ------------------------------------------------------------------

    def _plan(
        self,
        assign: list[DefectClass],
        n: int,
        rng: np.random.Generator,
    ) -> tuple[dict[int, DefectClass], list[int]]:
        """Pick damage targets and duplicate-insertion sources.

        Out-of-order targets reserve a clean predecessor; duplicate
        sources are reserved clean rows. Assignments that cannot be
        placed (tiny logs) are dropped rather than mis-planted.
        """
        available = list(range(n))
        rng.shuffle(available)
        available_set = set(available)
        protected: set[int] = set()  # rows that must stay clean
        damage: dict[int, DefectClass] = {}
        inserts: list[int] = []

        def reserve(row: int) -> None:
            available_set.discard(row)
            protected.add(row)

        # place the order-sensitive classes first
        for cls in (c for c in assign if c is DefectClass.OUT_OF_ORDER_TIME):
            target = next(
                (
                    i for i in available
                    if i in available_set
                    and i >= 1
                    and (i - 1) not in damage
                ),
                None,
            )
            if target is None:
                continue
            available_set.discard(target)
            damage[target] = cls
            reserve(target - 1)
        for cls in (c for c in assign if c is DefectClass.DUPLICATE_RECID):
            source = next((i for i in available if i in available_set), None)
            if source is None:
                continue
            reserve(source)
            inserts.append(source)
        for cls in assign:
            if cls in (
                DefectClass.OUT_OF_ORDER_TIME, DefectClass.DUPLICATE_RECID
            ):
                continue
            target = next((i for i in available if i in available_set), None)
            if target is None:
                continue
            available_set.discard(target)
            damage[target] = cls
        return damage, inserts

    def _apply(
        self,
        header: str,
        data: list[str],
        plan: tuple[dict[int, DefectClass], list[int]],
        rng: np.random.Generator,
    ) -> CorruptionResult:
        damage, inserts = plan
        insert_after: dict[int, int] = {}
        for source in inserts:
            insert_after[source] = insert_after.get(source, 0) + 1

        out: list[bytes] = []
        injected: list[InjectedDefect] = []
        for i, line in enumerate(data):
            if i in damage:
                cls = damage[i]
                mangled = self._damage_line(cls, line, i, data, rng)
                out.append(
                    mangled if isinstance(mangled, bytes)
                    else mangled.encode("utf-8")
                )
                injected.append(InjectedDefect(1 + len(out), cls, i))
            else:
                out.append(line.encode("utf-8"))
            for _ in range(insert_after.get(i, 0)):
                out.append(line.encode("utf-8"))
                injected.append(
                    InjectedDefect(
                        1 + len(out), DefectClass.DUPLICATE_RECID, None
                    )
                )
        return CorruptionResult(
            header=header,
            lines=tuple(out),
            injected=tuple(injected),
            num_source_rows=len(data),
        )

    # ------------------------------------------------------------------

    def _damage_line(
        self,
        cls: DefectClass,
        line: str,
        row: int,
        data: list[str],
        rng: np.random.Generator,
    ) -> str | bytes:
        if cls is DefectClass.BLANK_LINE:
            return ""
        if cls is DefectClass.TRUNCATED_LINE:
            last_sep = line.rfind("|")
            cut = int(rng.integers(1, max(2, last_sep + 1)))
            candidate = line[:cut]
            return candidate if candidate.strip() else line[:last_sep]
        if cls is DefectClass.GARBLED_DELIMITER:
            pos = int(rng.integers(0, len(line) + 1))
            return line[:pos] + "|" + line[pos:]
        if cls is DefectClass.ENCODING_GARBAGE:
            enc = line.encode("utf-8")
            pos = int(rng.integers(0, len(enc) + 1))
            return enc[:pos] + _GARBAGE_BYTES + enc[pos:]
        cells = line.split("|")
        if cls is DefectClass.BAD_FIELD:
            if self.kind == "ras":
                cells[_RAS_RECID_IDX] = _pick(rng, _BAD_INTS)
            else:
                idx = self._job_float_cell(len(cells))
                cells[idx] = _pick(rng, _BAD_FLOATS)
        elif cls is DefectClass.INVALID_TIMESTAMP:
            cells[_RAS_TIME_IDX] = _pick(rng, _BAD_TIMESTAMPS)
        elif cls is DefectClass.UNKNOWN_SEVERITY:
            cells[_RAS_SEVERITY_IDX] = _pick(rng, _BAD_SEVERITIES)
        elif cls is DefectClass.UNKNOWN_COMPONENT:
            cells[_RAS_COMPONENT_IDX] = _pick(rng, _BAD_COMPONENTS)
        elif cls is DefectClass.UNKNOWN_ERRCODE:
            cells[_RAS_ERRCODE_IDX] = _pick(rng, _BAD_ERRCODES)
        elif cls is DefectClass.OUT_OF_ORDER_TIME:
            from repro.logs.textio import format_bgp_time, parse_bgp_time

            prev_cells = data[row - 1].split("|")
            prev_time = parse_bgp_time(prev_cells[_RAS_TIME_IDX])
            back = 3600.0 * (1.0 + float(rng.uniform(0.0, 24.0)))
            cells[_RAS_TIME_IDX] = format_bgp_time(max(1.0, prev_time - back))
        else:  # pragma: no cover - planner never routes these here
            raise ValueError(f"cannot damage a line in place with {cls}")
        return "|".join(cells)

    def _job_float_cell(self, num_cells: int) -> int:
        # job layout (JOB_COLUMNS): queued/start/end times sit at 3..5
        return 4 if num_cells > 4 else num_cells - 1
