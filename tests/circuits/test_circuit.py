"""Tests for circuits and the circuit table."""

import pytest

from repro.circuits.circuit import Circuit, CircuitState, CircuitTable
from repro.errors import ProtocolError


class TestCircuit:
    def test_initial_state(self):
        c = Circuit(circuit_id=1, src=0, dst=5, switch=0)
        assert c.state is CircuitState.SETTING_UP
        assert not c.in_use
        assert c.length == 0

    def test_hop_channels_include_switch(self):
        c = Circuit(circuit_id=1, src=0, dst=2, switch=3)
        c.path = [(0, 0), (1, 0)]
        assert c.hop_channels() == [(0, 0, 3), (1, 0, 3)]

    def test_node_after(self):
        c = Circuit(circuit_id=1, src=0, dst=2, switch=0)
        c.path = [(0, 0), (1, 0)]
        assert c.node_after(0, lambda n, p: n + 1) == 1

    def test_node_after_unconnected_raises(self):
        c = Circuit(circuit_id=1, src=0, dst=2, switch=0)
        c.path = [(0, 0)]
        with pytest.raises(ProtocolError):
            c.node_after(0, lambda n, p: None)


class TestCircuitTable:
    def test_create_assigns_unique_ids(self):
        t = CircuitTable()
        a = t.create(0, 1, 0)
        b = t.create(0, 2, 0)
        assert a.circuit_id != b.circuit_id
        assert t.get(a.circuit_id) is a

    def test_get_unknown_raises(self):
        with pytest.raises(ProtocolError):
            CircuitTable().get(99)

    def test_forget_drops_only_a_failed_attempt(self):
        t = CircuitTable()
        failed = t.create(0, 1, 0)
        live = t.create(0, 2, 0)
        unwinding = t.create(0, 3, 0)
        failed.state = CircuitState.DEAD
        unwinding.state = CircuitState.DEAD
        unwinding.path = [(0, 0)]
        t.forget(failed)
        with pytest.raises(ProtocolError):
            t.get(failed.circuit_id)
        for kept in (live, unwinding):
            with pytest.raises(ProtocolError):
                t.forget(kept)
            assert t.get(kept.circuit_id) is kept
        # Ids are never reused, forgotten or not.
        assert t.create(0, 4, 0).circuit_id == unwinding.circuit_id + 1

    def test_live_and_established_filters(self):
        t = CircuitTable()
        a = t.create(0, 1, 0)
        b = t.create(0, 2, 0)
        c = t.create(0, 3, 0)
        a.state = CircuitState.ESTABLISHED
        b.state = CircuitState.DEAD
        assert set(x.circuit_id for x in t.live_circuits()) == {
            a.circuit_id, c.circuit_id
        }
        assert t.established() == [a]

    def test_channel_exclusivity_detects_double_claim(self):
        t = CircuitTable()
        a = t.create(0, 1, 0)
        b = t.create(2, 1, 0)
        a.path = [(0, 0), (1, 0)]
        b.path = [(1, 0)]  # same channel (1, 0) on the same switch
        with pytest.raises(ProtocolError):
            t.channels_in_use()

    def test_channel_map_when_disjoint(self):
        t = CircuitTable()
        a = t.create(0, 1, 0)
        b = t.create(2, 1, 1)
        a.path = [(1, 0)]
        b.path = [(1, 0)]  # same link, *different switch* -> fine
        owners = t.channels_in_use()
        assert owners[(1, 0, 0)] == a.circuit_id
        assert owners[(1, 0, 1)] == b.circuit_id

    def test_dead_circuits_ignored_for_exclusivity(self):
        t = CircuitTable()
        a = t.create(0, 1, 0)
        b = t.create(2, 1, 0)
        a.path = [(1, 0)]
        b.path = [(1, 0)]
        a.state = CircuitState.DEAD
        owners = t.channels_in_use()
        assert owners[(1, 0, 0)] == b.circuit_id
