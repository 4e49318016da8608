"""Hierarchical Blue Gene/P location codes.

Grammar (Intrepid variant, racks laid out as 5 rows × 8 columns):

.. code-block:: text

    rack          R<row><col>            R00 .. R47
    midplane      <rack>-M<m>            m in {0, 1}
    node card     <midplane>-N<nn>       nn in 00 .. 15
    compute node  <node card>-J<jj>      jj in 04 .. 35  (32 per card)
    io node       <node card>-J<jj>      jj in 00 .. 01
    service card  <midplane>-S
    link card     <midplane>-L<l>        l in 0 .. 3

A location *contains* another when it is a prefix of it in the hardware
hierarchy; rack-level events (e.g. bulk power) therefore touch both of
the rack's midplanes.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache

_NUM_ROWS = 5
_NUM_COLS = 8
_NODECARDS_PER_MIDPLANE = 16
_COMPUTE_J_LOW, _COMPUTE_J_HIGH = 4, 35
_IO_J_LOW, _IO_J_HIGH = 0, 1
_LINKCARDS_PER_MIDPLANE = 4


class LocationKind(enum.Enum):
    """Granularity of a location code."""

    RACK = "rack"
    MIDPLANE = "midplane"
    NODECARD = "nodecard"
    COMPUTE_NODE = "compute_node"
    IO_NODE = "io_node"
    SERVICE_CARD = "service_card"
    LINK_CARD = "link_card"


_LOCATION_RE = re.compile(
    r"^R(?P<row>[0-9])(?P<col>[0-9])"
    r"(?:-M(?P<mid>[01])"
    r"(?:-N(?P<nc>[0-9]{2})(?:-J(?P<node>[0-9]{2}))?"
    r"|-S"
    r"|-L(?P<link>[0-9])"
    r")?)?$"
)


@dataclass(frozen=True, order=True)
class Location:
    """A parsed, validated location code.

    Fields that do not apply at the location's granularity are ``None``
    (e.g. ``nodecard`` for a midplane-level location). ``service`` marks
    the midplane service card, ``link`` the link card index.
    """

    row: int
    col: int
    midplane: int | None = None
    nodecard: int | None = None
    node: int | None = None
    service: bool = False
    link: int | None = None

    def __post_init__(self):
        if not (0 <= self.row < _NUM_ROWS and 0 <= self.col < _NUM_COLS):
            raise ValueError(f"rack R{self.row}{self.col} outside the 5x8 grid")
        if self.midplane is not None and self.midplane not in (0, 1):
            raise ValueError(f"midplane must be 0 or 1, got {self.midplane}")
        if self.nodecard is not None:
            if self.midplane is None:
                raise ValueError("node card requires a midplane")
            if not 0 <= self.nodecard < _NODECARDS_PER_MIDPLANE:
                raise ValueError(f"node card {self.nodecard} out of range")
        if self.node is not None:
            if self.nodecard is None:
                raise ValueError("node requires a node card")
            if not (
                _COMPUTE_J_LOW <= self.node <= _COMPUTE_J_HIGH
                or _IO_J_LOW <= self.node <= _IO_J_HIGH
            ):
                raise ValueError(f"node J{self.node:02d} out of range")
        if self.service and (self.midplane is None or self.nodecard is not None):
            raise ValueError("service card attaches to a midplane")
        if self.link is not None:
            if self.midplane is None or self.nodecard is not None or self.service:
                raise ValueError("link card attaches to a midplane")
            if not 0 <= self.link < _LINKCARDS_PER_MIDPLANE:
                raise ValueError(f"link card {self.link} out of range")

    # ------------------------------------------------------------------

    @property
    def kind(self) -> LocationKind:
        if self.service:
            return LocationKind.SERVICE_CARD
        if self.link is not None:
            return LocationKind.LINK_CARD
        if self.node is not None:
            if _IO_J_LOW <= self.node <= _IO_J_HIGH:
                return LocationKind.IO_NODE
            return LocationKind.COMPUTE_NODE
        if self.nodecard is not None:
            return LocationKind.NODECARD
        if self.midplane is not None:
            return LocationKind.MIDPLANE
        return LocationKind.RACK

    @property
    def rack_index(self) -> int:
        """Row-major rack index in 0..39."""
        return self.row * _NUM_COLS + self.col

    def midplane_indices(self) -> tuple[int, ...]:
        """Global midplane indices (0..79) this location touches.

        A rack-level location touches both midplanes of the rack; every
        finer location touches exactly its own midplane.
        """
        if self.midplane is None:
            base = self.rack_index * 2
            return (base, base + 1)
        return (self.rack_index * 2 + self.midplane,)

    @property
    def midplane_index(self) -> int:
        """Global index of the (single) containing midplane.

        Raises ``ValueError`` for rack-level locations, which span two.
        """
        idx = self.midplane_indices()
        if len(idx) != 1:
            raise ValueError(f"{self} is rack-level and spans midplanes {idx}")
        return idx[0]

    def to_rack(self) -> "Location":
        """The enclosing rack location."""
        return Location(self.row, self.col)

    def contains(self, other: "Location") -> bool:
        """Hierarchy containment: True if *other* sits at or under this
        location (a midplane contains its node cards, nodes, service and
        link cards; a rack contains both midplanes)."""
        if (self.row, self.col) != (other.row, other.col):
            return False
        if self.midplane is None:
            return True
        if self.midplane != other.midplane:
            return False
        if self.service or self.link is not None:
            return self == other
        if self.nodecard is None:
            return True  # midplane level: everything below is contained
        if self.nodecard != other.nodecard:
            return False
        if self.node is None:
            return True  # node card level
        return self == other

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        s = f"R{self.row}{self.col}"
        if self.midplane is None:
            return s
        s += f"-M{self.midplane}"
        if self.service:
            return s + "-S"
        if self.link is not None:
            return s + f"-L{self.link}"
        if self.nodecard is not None:
            s += f"-N{self.nodecard:02d}"
            if self.node is not None:
                s += f"-J{self.node:02d}"
        return s

    @classmethod
    def from_midplane_index(cls, index: int) -> "Location":
        """Midplane location for a global index in 0..79."""
        if not 0 <= index < _NUM_ROWS * _NUM_COLS * 2:
            raise ValueError(f"midplane index {index} out of range")
        rack, m = divmod(index, 2)
        row, col = divmod(rack, _NUM_COLS)
        return cls(row, col, m)


@lru_cache(maxsize=65536)
def parse_location(text: str) -> Location:
    """Parse a RAS-log LOCATION string into a :class:`Location`.

    Accepts every level of the hierarchy; raises ``ValueError`` on
    malformed input. Parsing is memoized — log replay hits the same
    few thousand strings millions of times.
    """
    m = _LOCATION_RE.match(text)
    if m is None:
        raise ValueError(f"malformed location {text!r}")
    row, col = int(m.group("row")), int(m.group("col"))
    mid = m.group("mid")
    if mid is None:
        if "-S" in text or "-L" in text or "-N" in text:
            raise ValueError(f"malformed location {text!r}")
        return Location(row, col)
    mid_i = int(mid)
    if text.endswith("-S"):
        return Location(row, col, mid_i, service=True)
    if m.group("link") is not None:
        return Location(row, col, mid_i, link=int(m.group("link")))
    nc = m.group("nc")
    if nc is None:
        return Location(row, col, mid_i)
    node = m.group("node")
    return Location(
        row,
        col,
        mid_i,
        nodecard=int(nc),
        node=int(node) if node is not None else None,
    )
