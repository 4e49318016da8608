"""Unit tests for BG/P location codes."""

import pytest

from repro.machine import Location, LocationKind, parse_location


class TestParsing:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("R00", LocationKind.RACK),
            ("R47", LocationKind.RACK),
            ("R04-M0", LocationKind.MIDPLANE),
            ("R23-M1-N04", LocationKind.NODECARD),
            ("R23-M1-N04-J12", LocationKind.COMPUTE_NODE),
            ("R23-M1-N04-J00", LocationKind.IO_NODE),
            ("R04-M0-S", LocationKind.SERVICE_CARD),
            ("R04-M0-L2", LocationKind.LINK_CARD),
        ],
    )
    def test_kinds(self, text, kind):
        assert parse_location(text).kind is kind

    @pytest.mark.parametrize(
        "text",
        [
            "R00", "R47", "R04-M0", "R23-M1-N04", "R23-M1-N04-J12",
            "R04-M0-S", "R04-M0-L2", "R23-M1-N15-J35",
        ],
    )
    def test_str_roundtrip(self, text):
        assert str(parse_location(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "R50",          # row out of range
            "R08",          # col out of range
            "R00-M2",       # bad midplane
            "R00-M0-N16",   # bad node card
            "R00-M0-N00-J02",  # J02 neither compute nor io
            "R00-M0-N00-J36",  # beyond compute range
            "R00-M0-L4",    # bad link card
            "R00-S",        # service card without midplane
            "bogus",
            "",
            "R0",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_location(text)

    def test_parse_is_cached(self):
        assert parse_location("R00-M0") is parse_location("R00-M0")


class TestIndexing:
    def test_rack_index_row_major(self):
        assert parse_location("R00").rack_index == 0
        assert parse_location("R07").rack_index == 7
        assert parse_location("R10").rack_index == 8
        assert parse_location("R47").rack_index == 39

    def test_midplane_index(self):
        assert parse_location("R00-M0").midplane_index == 0
        assert parse_location("R00-M1").midplane_index == 1
        assert parse_location("R47-M1").midplane_index == 79

    def test_midplane_index_of_node(self):
        assert parse_location("R10-M1-N03-J09").midplane_index == 17

    def test_rack_spans_two_midplanes(self):
        assert parse_location("R10").midplane_indices() == (16, 17)
        with pytest.raises(ValueError, match="rack-level"):
            parse_location("R10").midplane_index

    def test_from_midplane_index_roundtrip(self):
        for i in range(80):
            assert Location.from_midplane_index(i).midplane_index == i

    def test_from_midplane_index_bounds(self):
        with pytest.raises(ValueError):
            Location.from_midplane_index(80)
        with pytest.raises(ValueError):
            Location.from_midplane_index(-1)


class TestHierarchy:
    def test_rack_contains_everything_below(self):
        rack = parse_location("R04")
        for t in ["R04-M0", "R04-M1", "R04-M0-S", "R04-M1-N02-J10", "R04-M0-L1"]:
            assert rack.contains(parse_location(t))

    def test_midplane_contains_cards_and_nodes(self):
        mp = parse_location("R04-M0")
        for t in ["R04-M0", "R04-M0-S", "R04-M0-L3", "R04-M0-N00", "R04-M0-N00-J05"]:
            assert mp.contains(parse_location(t))

    def test_midplane_does_not_contain_sibling(self):
        assert not parse_location("R04-M0").contains(parse_location("R04-M1"))

    def test_midplane_does_not_contain_rack(self):
        assert not parse_location("R04-M0").contains(parse_location("R04"))

    def test_nodecard_contains_its_nodes_only(self):
        nc = parse_location("R04-M0-N02")
        assert nc.contains(parse_location("R04-M0-N02-J11"))
        assert not nc.contains(parse_location("R04-M0-N03-J11"))
        assert not nc.contains(parse_location("R04-M0-S"))

    def test_node_contains_only_itself(self):
        n = parse_location("R04-M0-N02-J11")
        assert n.contains(n)
        assert not n.contains(parse_location("R04-M0-N02-J12"))

    def test_cross_rack_never_contains(self):
        assert not parse_location("R04").contains(parse_location("R05-M0"))

    def test_to_midplane_and_rack(self):
        n = parse_location("R04-M1-N02-J11")
        assert str(Location.from_midplane_index(n.midplane_index)) == "R04-M1"
        assert str(n.to_rack()) == "R04"
        with pytest.raises(ValueError):
            parse_location("R04").midplane_index


class TestValidation:
    def test_constructor_validates_nodecard_needs_midplane(self):
        with pytest.raises(ValueError):
            Location(0, 0, None, nodecard=1)

    def test_constructor_validates_node_needs_nodecard(self):
        with pytest.raises(ValueError):
            Location(0, 0, 0, node=5)

    def test_ordering_is_total(self):
        locs = [parse_location(t) for t in ["R10-M0", "R00", "R04-M1"]]
        assert sorted(locs)[0] == parse_location("R00")
