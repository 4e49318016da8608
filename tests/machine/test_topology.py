"""Unit tests for the Intrepid topology constants and enumeration."""

import pytest

from repro.machine import IntrepidTopology
from repro.machine.location import parse_location
from repro.machine import topology as T


@pytest.fixture(scope="module")
def topo():
    return IntrepidTopology()


class TestScale:
    """The paper's §III-A numbers must fall out of the model."""

    def test_counts_match_paper(self, topo):
        assert topo.num_racks == 40
        assert topo.num_midplanes == 80
        assert topo.num_compute_nodes == 40960
        assert T.NUM_CORES == 163840

    def test_io_ratio(self):
        assert T.COMPUTE_NODES_PER_IO_NODE == 64
        assert T.IO_NODES_PER_MIDPLANE == 8

    def test_nodecard_math(self):
        assert (
            T.NODECARDS_PER_MIDPLANE * T.COMPUTE_NODES_PER_NODECARD
            == T.NODES_PER_MIDPLANE
        )

    def test_midplane_torus(self):
        x, y, z = T.MIDPLANE_TORUS
        assert x * y * z == T.NODES_PER_MIDPLANE


class TestEnumeration:
    def test_racks_count_and_order(self, topo):
        racks = list(topo.racks())
        assert len(racks) == 40
        assert str(racks[0]) == "R00"
        assert str(racks[-1]) == "R47"

    def test_midplanes_in_index_order(self, topo):
        mps = list(topo.midplanes())
        assert len(mps) == 80
        assert [m.midplane_index for m in mps] == list(range(80))

    def test_service_and_link_cards(self, topo):
        mp = parse_location("R12-M1")
        assert str(topo.service_card(mp)) == "R12-M1-S"
        links = list(topo.link_cards(mp))
        assert len(links) == 4
        assert str(links[2]) == "R12-M1-L2"


class TestIndexArithmetic:
    def test_midplane_location_roundtrip(self, topo):
        for i in (0, 1, 16, 79):
            assert topo.midplane_index(topo.midplane_location(i)) == i

    def test_midplane_location_bounds(self, topo):
        with pytest.raises(ValueError):
            topo.midplane_location(80)
