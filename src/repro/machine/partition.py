"""Cobalt partitions on Intrepid.

Jobs run on *partitions*: contiguous blocks of midplanes with a private
3-D torus (§III-A). The midplane is the minimum schedulable unit and
larger partitions join adjacent midplanes; the legal sizes observed in
the job log are 1, 2, 4, 8, 16, 32, 48, 64 and 80 midplanes (Table VI).

Partition names follow the job-log LOCATION conventions:

* ``R10-M0`` — one midplane;
* ``R10`` — one full rack (2 midplanes);
* ``R10-R13`` — an inclusive row-major rack range (here 4 racks =
  8 midplanes), the form shown in Table III.

Alignment: a partition of ``2k`` midplanes occupies ``k`` racks starting
at a rack index that is a multiple of ``k`` (for power-of-two ``k``),
mirroring how midplanes "can be joined with other adjacent midplanes as
a larger partition" [14]. The 48- and 80-midplane sizes are the 3-row
and whole-machine special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from repro.machine.location import Location, parse_location
from repro.machine.topology import MIDPLANES_PER_RACK, NUM_COLS, NUM_MIDPLANES, NUM_RACKS

#: Job sizes (in midplanes) legal on Intrepid, per Table VI.
ALLOWED_PARTITION_SIZES = (1, 2, 4, 8, 16, 32, 48, 64, 80)


@dataclass(frozen=True, order=True)
class Partition:
    """A contiguous block of midplanes ``[start, start + size)``.

    ``start`` is a global midplane index (0..79); ``size`` counts
    midplanes. Instances are value objects: equality and ordering follow
    ``(start, size)``.
    """

    start: int
    size: int

    def __post_init__(self):
        if self.size not in ALLOWED_PARTITION_SIZES:
            raise ValueError(
                f"size {self.size} not in {ALLOWED_PARTITION_SIZES}"
            )
        if not 0 <= self.start < NUM_MIDPLANES:
            raise ValueError(f"start {self.start} out of range")
        if self.start + self.size > NUM_MIDPLANES:
            raise ValueError(
                f"partition [{self.start}, {self.start + self.size}) exceeds "
                f"{NUM_MIDPLANES} midplanes"
            )
        if self.size == 1:
            return
        racks = self.size // MIDPLANES_PER_RACK
        if self.start % MIDPLANES_PER_RACK:
            raise ValueError("multi-midplane partitions start on a rack boundary")
        rack_start = self.start // MIDPLANES_PER_RACK
        if self.size in (48, 80):
            # 3-row (24-rack) and whole-machine cases align on a row.
            if rack_start % NUM_COLS:
                raise ValueError(f"{self.size}-midplane partitions align on a row")
        elif rack_start % racks:
            raise ValueError(
                f"{self.size}-midplane partitions align on {racks}-rack boundaries"
            )

    # ------------------------------------------------------------------

    @property
    def midplane_indices(self) -> range:
        """Global midplane indices covered by this partition."""
        return range(self.start, self.start + self.size)

    def covers_midplane(self, index: int) -> bool:
        return self.start <= index < self.start + self.size

    def overlaps(self, other: "Partition") -> bool:
        return (
            self.start < other.start + other.size
            and other.start < self.start + self.size
        )

    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Job-log LOCATION string for this partition."""
        if self.size == 1:
            return str(Location.from_midplane_index(self.start))
        rack_start = self.start // MIDPLANES_PER_RACK
        racks = self.size // MIDPLANES_PER_RACK
        first = Location.from_midplane_index(self.start).to_rack()
        if racks == 1:
            return str(first)
        last = Location.from_midplane_index(self.start + self.size - 1).to_rack()
        return f"{first}-{last}"

    def __str__(self) -> str:
        return self.name


@lru_cache(maxsize=4096)
def parse_partition(text: str) -> Partition:
    """Parse a job-log LOCATION string into a :class:`Partition`."""
    if "-R" in text:
        first_s, last_s = text.split("-", 1)
        first = parse_location(first_s)
        last = parse_location(last_s)
        if first.midplane is not None or last.midplane is not None:
            raise ValueError(f"rack range {text!r} must name racks")
        start = first.rack_index * MIDPLANES_PER_RACK
        size = (last.rack_index - first.rack_index + 1) * MIDPLANES_PER_RACK
        return Partition(start, size)
    loc = parse_location(text)
    if loc.midplane is not None:
        if loc.kind.value != "midplane":
            raise ValueError(f"{text!r} is below midplane granularity")
        return Partition(loc.midplane_index, 1)
    return Partition(loc.rack_index * MIDPLANES_PER_RACK, MIDPLANES_PER_RACK)


class PartitionPool:
    """All allocatable partitions, grouped by size.

    The pool enumerates every aligned partition of every legal size; the
    scheduler picks among free ones. Enumeration order within a size is
    by start index, which the allocation policy then re-ranks.
    """

    def __init__(self):
        self._by_size: dict[int, list[Partition]] = {}
        for size in ALLOWED_PARTITION_SIZES:
            self._by_size[size] = list(_enumerate_partitions(size))

    def candidates(self, size: int) -> Sequence[Partition]:
        """Aligned partitions of exactly *size* midplanes."""
        if size not in self._by_size:
            raise ValueError(
                f"size {size} not schedulable; legal sizes {ALLOWED_PARTITION_SIZES}"
            )
        return self._by_size[size]

    @staticmethod
    def fit_size(requested_midplanes: int) -> int:
        """Smallest legal partition size holding *requested_midplanes*."""
        for size in ALLOWED_PARTITION_SIZES:
            if size >= requested_midplanes:
                return size
        raise ValueError(f"no partition holds {requested_midplanes} midplanes")


def _enumerate_partitions(size: int) -> Iterator[Partition]:
    if size == 1:
        for i in range(NUM_MIDPLANES):
            yield Partition(i, 1)
        return
    racks = size // MIDPLANES_PER_RACK
    if size in (48, 80):
        step = NUM_COLS  # row aligned
    else:
        step = racks
    for rack_start in range(0, NUM_RACKS - racks + 1, step):
        yield Partition(rack_start * MIDPLANES_PER_RACK, size)
