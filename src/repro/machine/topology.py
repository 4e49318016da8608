"""Static topology of the Intrepid Blue Gene/P system (§III-A).

Intrepid is 40 racks in five rows (R0x..R4x), each rack holding two
midplanes of 512 quad-core PowerPC 450 compute nodes. Every group of 64
compute nodes shares an I/O node; compute nodes form a 3-D torus per
partition and reach the I/O nodes over a tree network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.machine.location import Location

NUM_ROWS = 5
NUM_COLS = 8
NUM_RACKS = NUM_ROWS * NUM_COLS
MIDPLANES_PER_RACK = 2
NUM_MIDPLANES = NUM_RACKS * MIDPLANES_PER_RACK
NODES_PER_MIDPLANE = 512
CORES_PER_NODE = 4
NUM_COMPUTE_NODES = NUM_MIDPLANES * NODES_PER_MIDPLANE
NUM_CORES = NUM_COMPUTE_NODES * CORES_PER_NODE
NODECARDS_PER_MIDPLANE = 16
COMPUTE_NODES_PER_NODECARD = 32
COMPUTE_NODES_PER_IO_NODE = 64
IO_NODES_PER_MIDPLANE = NODES_PER_MIDPLANE // COMPUTE_NODES_PER_IO_NODE
#: midplane torus dimensions (8x8x8 nodes)
MIDPLANE_TORUS = (8, 8, 8)


@dataclass(frozen=True)
class IntrepidTopology:
    """Enumeration and index arithmetic over Intrepid's hardware tree.

    The class is stateless; it exists to give the simulator and the
    analysis code one vocabulary for iterating hardware units and for
    mapping between location codes and dense indices.
    """

    num_rows: int = NUM_ROWS
    num_cols: int = NUM_COLS

    @property
    def num_racks(self) -> int:
        return self.num_rows * self.num_cols

    @property
    def num_midplanes(self) -> int:
        return self.num_racks * MIDPLANES_PER_RACK

    @property
    def num_compute_nodes(self) -> int:
        return self.num_midplanes * NODES_PER_MIDPLANE

    # ------------------------------------------------------------------
    # enumeration

    def racks(self) -> Iterator[Location]:
        """All rack locations in row-major order."""
        for row in range(self.num_rows):
            for col in range(self.num_cols):
                yield Location(row, col)

    def midplanes(self) -> Iterator[Location]:
        """All midplane locations in global-index order."""
        for i in range(self.num_midplanes):
            yield Location.from_midplane_index(i)

    def service_card(self, midplane: Location) -> Location:
        """The midplane's service card location."""
        return Location(midplane.row, midplane.col, midplane.midplane, service=True)

    def link_cards(self, midplane: Location) -> Iterator[Location]:
        """The midplane's four link cards."""
        for link in range(4):
            yield Location(midplane.row, midplane.col, midplane.midplane, link=link)

    # ------------------------------------------------------------------
    # index arithmetic

    def midplane_location(self, index: int) -> Location:
        """Midplane location for a global index (0..num_midplanes-1)."""
        if not 0 <= index < self.num_midplanes:
            raise ValueError(f"midplane index {index} out of range")
        return Location.from_midplane_index(index)

    def midplane_index(self, location: Location) -> int:
        """Global midplane index of a sub-midplane location."""
        return location.midplane_index
