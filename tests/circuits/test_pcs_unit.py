"""F3: tests for the PCS routing control unit's status registers (Fig. 3)."""

import pytest

from repro.circuits.pcs_unit import ChannelStatus, PCSControlUnit
from repro.errors import ProtocolError


def unit(num_ports=4, num_switches=2, node=0):
    return PCSControlUnit(node, num_ports, num_switches)


class TestChannelStatus:
    def test_all_channels_start_free(self):
        u = unit()
        for p in range(4):
            for s in range(2):
                assert u.status(p, s) is ChannelStatus.FREE
                assert u.owner(p, s) is None
                assert not u.ack_returned(p, s)

    def test_reserve_sets_owner(self):
        u = unit()
        u.reserve(1, 0, circuit_id=42)
        assert u.status(1, 0) is ChannelStatus.RESERVED
        assert u.owner(1, 0) == 42

    def test_reserve_is_per_switch(self):
        u = unit()
        u.reserve(1, 0, 42)
        assert u.status(1, 1) is ChannelStatus.FREE

    def test_double_reserve_raises(self):
        u = unit()
        u.reserve(1, 0, 42)
        with pytest.raises(ProtocolError):
            u.reserve(1, 0, 43)

    def test_release_requires_matching_owner(self):
        u = unit()
        u.reserve(1, 0, 42)
        with pytest.raises(ProtocolError):
            u.release(1, 0, 99)
        u.release(1, 0, 42)
        assert u.status(1, 0) is ChannelStatus.FREE

    def test_release_clears_ack_bit(self):
        u = unit()
        u.reserve(1, 0, 42)
        u.set_ack_returned(1, 0, 42)
        assert u.ack_returned(1, 0)
        u.release(1, 0, 42)
        assert not u.ack_returned(1, 0)

    def test_ack_requires_owner_match(self):
        u = unit()
        u.reserve(1, 0, 42)
        with pytest.raises(ProtocolError):
            u.set_ack_returned(1, 0, 43)

    def test_unknown_channel_raises(self):
        u = unit()
        with pytest.raises(ProtocolError):
            u.status(9, 0)
        with pytest.raises(ProtocolError):
            u.status(0, 5)


class TestMappings:
    def test_direct_and_reverse_are_inverse(self):
        u = unit()
        u.map_through((0, 0), (3, 0))
        assert u.next_hop((0, 0)) == (3, 0)
        assert u.prev_hop((3, 0)) == (0, 0)

    def test_source_hop_has_no_mapping(self):
        u = unit()
        u.map_through(None, (3, 0))
        assert u.prev_hop((3, 0)) is None

    def test_unmap_removes_both_directions(self):
        u = unit()
        u.map_through((0, 0), (3, 0))
        u.unmap_through((3, 0))
        assert u.next_hop((0, 0)) is None
        assert u.prev_hop((3, 0)) is None

    def test_unmap_unknown_is_noop(self):
        u = unit()
        u.unmap_through((3, 0))  # must not raise


class TestHistoryStore:
    def test_search_recorded_per_probe(self):
        u = unit()
        u.record_search(7, port=2)
        assert u.searched(7, 2)
        assert not u.searched(7, 3)
        assert not u.searched(8, 2)

    def test_clear_history(self):
        u = unit()
        u.record_search(7, 2)
        u.clear_history(7)
        assert not u.searched(7, 2)

    def test_clear_unknown_probe_is_noop(self):
        unit().clear_history(12345)


class TestQueries:
    def test_free_channels(self):
        u = unit()
        u.reserve(0, 0, 1)
        assert u.free_channels(0) == [1, 2, 3]
        assert u.free_channels(1) == [0, 1, 2, 3]

    def test_reserved_channels(self):
        u = unit()
        u.reserve(0, 0, 1)
        u.reserve(2, 1, 2)
        assert sorted(u.reserved_channels()) == [(0, 0), (2, 1)]
