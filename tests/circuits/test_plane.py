"""Tests for WavePlane orchestration: acks, teardowns, races, transfers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import build_plane, run_plane, run_until_idle

from repro.circuits.circuit import CircuitState
from repro.circuits.control import ControlFlitKind
from repro.circuits.pcs_unit import ChannelStatus
from repro.circuits.wave import WaveTransfer
from repro.errors import ProtocolError
from repro.network.message import Message


def establish(plane, src, dst, switch=0, cycle=0):
    circuit, probe = plane.launch_probe(src, dst, switch, force=False, cycle=cycle)
    run_until_idle(plane, cycle + 1)
    assert circuit.state is CircuitState.ESTABLISHED
    return circuit


class TestAckPropagation:
    def test_ack_sets_bits_backwards(self):
        topo, plane, engines, stats = build_plane(dims=(5,), num_switches=1)
        circuit, _ = plane.launch_probe(0, 4, 0, force=False, cycle=0)
        # Step until probe reached dst (4 hops + decisions).
        acks_seen = []
        for cycle in range(1, 30):
            plane.step(cycle)
            bits = [
                plane.units[n].ack_returned(p, 0)
                for n, p in circuit.path
                if plane.units[n].status(p, 0) is ChannelStatus.RESERVED
            ]
            acks_seen.append(tuple(bits))
            if circuit.state is CircuitState.ESTABLISHED:
                break
        # Ack bits appear from the far end backwards, monotonically.
        final = acks_seen[-1]
        assert all(final)

    def test_established_exactly_once(self):
        topo, plane, engines, stats = build_plane()
        establish(plane, 0, 5)
        assert len(engines[0].established) == 1
        assert stats.count("circuit.established") == 1


class TestTeardown:
    def test_teardown_frees_all_channels(self):
        topo, plane, engines, stats = build_plane()
        circuit = establish(plane, 0, topo.node_at((2, 2)))
        path = list(circuit.path)
        plane.start_teardown(circuit, 100)
        run_until_idle(plane, 101)
        assert circuit.state is CircuitState.DEAD
        for node, port in path:
            assert plane.units[node].status(port, circuit.switch) is ChannelStatus.FREE
        assert engines[0].released

    def test_teardown_of_in_use_circuit_raises(self):
        topo, plane, engines, stats = build_plane()
        circuit = establish(plane, 0, 5)
        msg = Message(msg_id=1, src=0, dst=5, length=32, created=0)
        plane.start_transfer(circuit, msg, 100)
        with pytest.raises(ProtocolError):
            plane.start_teardown(circuit, 100)

    def test_teardown_of_setting_up_circuit_raises(self):
        topo, plane, engines, stats = build_plane()
        circuit, _ = plane.launch_probe(0, 5, 0, force=False, cycle=0)
        with pytest.raises(ProtocolError):
            plane.start_teardown(circuit, 0)

    def test_mappings_removed_on_teardown(self):
        topo, plane, engines, stats = build_plane()
        circuit = establish(plane, 0, topo.node_at((0, 3)))
        mid = topo.node_at((0, 1))
        assert plane.units[mid].direct_map  # circuit crosses mid
        plane.start_teardown(circuit, 100)
        run_until_idle(plane, 101)
        assert not plane.units[mid].direct_map
        assert not plane.units[mid].reverse_map


class TestReleaseRequestRaces:
    def test_duplicate_release_requests_discarded(self):
        """Two nodes request the same victim; the second is discarded."""
        topo, plane, engines, stats = build_plane(dims=(5,), num_switches=1,
                                                  misroute_budget=0)
        victim = establish(plane, 0, 4)
        # Two force probes at different intermediate nodes of the victim.
        f1, _ = plane.launch_probe(1, 4, 0, force=True, cycle=10)
        f2, _ = plane.launch_probe(2, 4, 0, force=True, cycle=10)
        run_until_idle(plane, 11)
        assert victim.state is CircuitState.DEAD
        # Both probes eventually resolved (established or failed cleanly).
        assert f1.state in (CircuitState.ESTABLISHED, CircuitState.DEAD)
        assert f2.state in (CircuitState.ESTABLISHED, CircuitState.DEAD)
        # At least one release request existed; duplicates were dropped or
        # deduped at the engine.
        assert stats.count("clrp.victim_releases_requested") >= 2

    def test_release_req_discarded_when_circuit_already_releasing(self):
        topo, plane, engines, stats = build_plane(dims=(5,), num_switches=1,
                                                  misroute_budget=0)
        victim = establish(plane, 0, 4)
        forced, probe = plane.launch_probe(2, 4, 0, force=True, cycle=10)
        # Let the release request be created, then release locally first.
        run_plane(plane, 11, 2)
        if victim.state is CircuitState.ESTABLISHED:
            plane.start_teardown(victim, 13)
        run_until_idle(plane, 14)
        assert victim.state is CircuitState.DEAD
        # The in-flight request hit a releasing circuit and was discarded,
        # or arrived after death -- either way, no crash and no zombie.
        assert stats.count("clrp.release_req_discarded") >= 0


class TestTransfers:
    def test_transfer_delivers_message(self):
        topo, plane, engines, stats = build_plane()
        delivered = []
        plane.deliver_message = lambda msg, cycle: delivered.append((msg, cycle))
        circuit = establish(plane, 0, 5)
        msg = Message(msg_id=1, src=0, dst=5, length=64, created=0)
        plane.start_transfer(circuit, msg, 50)
        run_until_idle(plane, 51)
        assert len(delivered) == 1
        assert delivered[0][0] is msg
        assert circuit.uses == 1
        assert not circuit.in_use
        assert engines[0].transfers_done

    def test_transfer_on_in_use_circuit_raises(self):
        topo, plane, engines, stats = build_plane()
        circuit = establish(plane, 0, 5)
        m1 = Message(msg_id=1, src=0, dst=5, length=64, created=0)
        m2 = Message(msg_id=2, src=0, dst=5, length=64, created=0)
        plane.start_transfer(circuit, m1, 50)
        with pytest.raises(ProtocolError):
            plane.start_transfer(circuit, m2, 50)

    def test_transfer_on_dead_circuit_raises(self):
        topo, plane, engines, stats = build_plane()
        circuit = establish(plane, 0, 5)
        plane.start_teardown(circuit, 50)
        run_until_idle(plane, 51)
        with pytest.raises(ProtocolError):
            plane.start_transfer(
                circuit, Message(msg_id=1, src=0, dst=5, length=8, created=0), 99
            )

    def test_delivery_time_accounts_pipeline(self):
        topo, plane, engines, stats = build_plane(wave_clock_ratio=4.0,
                                                  wire_delay=2)
        delivered = []
        plane.deliver_message = lambda msg, cycle: delivered.append(cycle)
        dst = topo.node_at((0, 3))
        circuit = establish(plane, 0, dst)
        msg = Message(msg_id=1, src=0, dst=dst, length=32, created=0)
        transfer = plane.start_transfer(circuit, msg, 100)
        run_until_idle(plane, 101)
        assert transfer.pipe_delay == circuit.length * 2
        assert delivered[0] == transfer.last_sent_cycle + transfer.pipe_delay

    # -- event-scheduled timelines ----------------------------------------

    @staticmethod
    def replayed_sends(transfer, first):
        """Per-cycle flits of ``advance()`` stepped from ``first`` on."""
        spec = WaveTransfer(
            transfer.message, transfer.circuit, transfer.rate,
            transfer.window, transfer.pipe_delay, transfer.start_cycle,
        )
        sends = []
        cycle = first
        while not spec.done:
            sends.append(spec.advance(cycle))
            cycle += 1
        return sends, spec

    def test_same_cycle_events_keep_start_order(self):
        """Two transfers of equal length over equally long circuits,
        started in the same cycle: both deliveries fire (in start order)
        before either completion (in start order)."""
        topo, plane, engines, stats = build_plane()
        order = []
        plane.deliver_message = lambda msg, cycle: order.append(
            ("deliver", msg.msg_id, cycle)
        )
        # Started second-circuit-first so start order != circuit id order.
        c1 = establish(plane, 0, 3)
        c2 = establish(plane, 12, 15, cycle=30)
        assert c1.length == c2.length
        for engine in engines:
            engine.transfer_completed = lambda t, cycle: order.append(
                ("complete", t.message.msg_id, cycle)
            )
        plane.start_transfer(
            c2, Message(msg_id=7, src=12, dst=15, length=64, created=0), 60
        )
        plane.start_transfer(
            c1, Message(msg_id=3, src=0, dst=3, length=64, created=0), 60
        )
        run_until_idle(plane, 60)
        kinds = [(kind, msg) for kind, msg, _ in order]
        assert kinds == [
            ("deliver", 7), ("deliver", 3), ("complete", 7), ("complete", 3)
        ]
        assert order[0][2] == order[1][2] and order[2][2] == order[3][2]

    def test_chained_transfer_first_streams_next_cycle(self):
        """A transfer started from ``transfer_completed`` is inside the
        transfer phase of cycle c, which is over for it: it streams from
        c + 1.  One started before the phase streams from c itself."""
        topo, plane, engines, stats = build_plane()
        circuit = establish(plane, 0, 5)
        second = Message(msg_id=2, src=0, dst=5, length=32, created=0)
        chained = []
        engines[0].transfer_completed = lambda t, cycle: (
            chained or chained.append(
                (plane.start_transfer(circuit, second, cycle), cycle)
            )
        )
        first = plane.start_transfer(
            circuit, Message(msg_id=1, src=0, dst=5, length=32, created=0), 50
        )
        before = plane.work_done
        plane.step(50)
        assert plane.work_done - before == 4  # streams in its start cycle
        run_until_idle(plane, 51)
        (transfer, completed_cycle), = chained
        assert completed_cycle == first.completed_at
        _, spec = self.replayed_sends(transfer, completed_cycle + 1)
        assert transfer.last_sent_cycle == spec.last_sent_cycle
        assert transfer.delivered_at == spec.delivered_at
        assert transfer.completed_at == spec.completed_at

    @pytest.mark.parametrize("window", [256, 8])
    def test_per_cycle_work_equals_replayed_advance(self, window):
        """Work is credited in the cycle the flits are sent (the progress
        monitors read a workless cycle as a stall), throttled or not."""
        topo, plane, engines, stats = build_plane(window=window)
        circuit = establish(plane, 0, topo.node_at((3, 3)))
        msg = Message(msg_id=1, src=0, dst=circuit.dst, length=150, created=0)
        transfer = plane.start_transfer(circuit, msg, 100)
        throttled = window < transfer.rate * transfer.rtt
        assert throttled == (window == 8)
        sends, spec = self.replayed_sends(transfer, 100)
        expected = list(sends)
        expected[spec.delivered_at - 100] += 1  # the delivery itself
        trajectory = []
        for cycle in range(100, 100 + len(sends)):
            before = plane.work_done
            plane.step(cycle)
            trajectory.append(plane.work_done - before)
        assert trajectory == expected
        assert sum(sends) == 150
        assert plane.is_idle()
        assert transfer.completed_at == spec.completed_at
        assert engines[0].transfers_done == [(transfer, spec.completed_at)]

    @pytest.mark.parametrize("window", [256, 8])
    def test_fault_teardown_mid_stream_cancels_the_timeline(self, window):
        topo, plane, engines, stats = build_plane(window=window)
        delivered = []
        plane.deliver_message = lambda msg, cycle: delivered.append(msg)
        circuit = establish(plane, 0, topo.node_at((3, 3)))
        bystander = establish(plane, 12, 13, cycle=40)
        msg = Message(msg_id=1, src=0, dst=circuit.dst, length=400, created=0)
        other = Message(msg_id=2, src=12, dst=13, length=400, created=0)
        transfer = plane.start_transfer(circuit, msg, 100)
        kept = plane.start_transfer(bystander, other, 100)
        sends, _ = self.replayed_sends(transfer, 100)
        kept_sends, _ = self.replayed_sends(kept, 100)
        before = plane.work_done
        run_plane(plane, 100, 20)
        assert plane.work_done - before == sum(sends[:20]) + sum(kept_sends[:20])
        # The link dies at the top of cycle 120, before its transfer phase.
        plane.fault_teardown(circuit, 120)
        assert plane.transfers == [kept]
        assert all(event[3] is kept for event in plane._transfer_events)
        assert stats.count("wave.transfers_severed") == 1
        assert [loss.msg_id for loss in stats.losses] == [1]
        assert engines[0].faults == [(circuit, 120)]
        # From here on only the bystander streams: flits the severed
        # transfer sent stay counted, the rest never are.
        before = plane.work_done
        plane.step(120)  # the fault's TEARDOWN control flit is not due yet
        assert plane.work_done - before == kept_sends[20]
        run_until_idle(plane, 121)
        assert delivered == [other]
        assert plane._streaming_rate == 0 and not plane._transfer_events

    def test_fault_after_delivery_delivers_instead_of_losing(self):
        """Tail already at the destination, window acks still draining:
        the fault cuts the circuit but the message counts as delivered."""
        topo, plane, engines, stats = build_plane(wire_delay=4)
        delivered = []
        plane.deliver_message = lambda msg, cycle: delivered.append(
            (msg.msg_id, cycle)
        )
        circuit = establish(plane, 0, topo.node_at((0, 3)))
        msg = Message(msg_id=1, src=0, dst=circuit.dst, length=16, created=0)
        transfer = plane.start_transfer(circuit, msg, 100)
        assert transfer.delivered_at > transfer.last_sent_cycle >= 100
        run_plane(plane, 100, transfer.delivered_at - 100)
        # The delivery event is due in this cycle's transfer phase; the
        # fault comes first and must do the delivering itself.
        assert not delivered
        plane.fault_teardown(circuit, transfer.delivered_at)
        assert delivered == [(1, transfer.delivered_at)]
        assert stats.count("wave.transfers_cut_after_delivery") == 1
        assert stats.count("wave.transfers_severed") == 0
        assert not plane._transfer_events


class TestCircuitTablePruning:
    """Failed attempts leave the table; released circuits stay as DEAD."""

    def test_released_circuit_keeps_its_record(self):
        topo, plane, engines, stats = build_plane()
        circuit = establish(plane, 0, topo.node_at((2, 2)))
        plane.start_teardown(circuit, 100)
        run_until_idle(plane, 101)
        # A late RELEASE_REQ must still find state DEAD.
        assert plane.table.get(circuit.circuit_id).state is CircuitState.DEAD

    def test_failed_attempt_is_dropped_after_the_engine_heard(self):
        topo, plane, engines, stats = build_plane(
            dims=(2,), misroute_budget=0, num_switches=1
        )
        held = establish(plane, 0, 1)
        seen = []
        engines[0].probe_failed = lambda probe, circuit, cycle: seen.append(
            circuit.circuit_id in plane.table.circuits
        )
        failed, probe = plane.launch_probe(0, 1, 0, force=False, cycle=50)
        run_until_idle(plane, 51)
        assert seen == [True]  # still there while the engine is told
        assert list(plane.table.circuits) == [held.circuit_id]
        assert failed.state is CircuitState.DEAD and failed.path == []

    def test_attempt_aborted_with_its_ack_in_flight_is_dropped(self):
        topo, plane, engines, stats = build_plane(dims=(4,), num_switches=1)
        circuit, probe = plane.launch_probe(0, 3, 0, force=False, cycle=0)
        cycle = 1
        while plane.probes:  # until the probe has succeeded
            plane.step(cycle)
            cycle += 1
        assert circuit.state is CircuitState.SETTING_UP and plane.control_flits
        node, port = circuit.path[1]
        plane.on_link_killed(node, port, cycle)
        assert stats.count("probe.fault_aborts") == 1
        (ghost, reported, _), = engines[0].failed
        assert reported is circuit and ghost.probe_id == -1
        assert circuit.circuit_id not in plane.table.circuits
        assert plane.is_idle()
        for unit in plane.units:
            assert unit.reserved_channels() == []


class TestIdleness:
    def test_fresh_plane_idle(self):
        topo, plane, engines, stats = build_plane()
        assert plane.is_idle()

    def test_busy_during_setup(self):
        topo, plane, engines, stats = build_plane()
        plane.launch_probe(0, 5, 0, force=False, cycle=0)
        assert not plane.is_idle()
        run_until_idle(plane, 1)
        assert plane.is_idle()


class TestStateChecksInTheLoops:
    """The per-cycle loops write registers in place; a register that is
    not in the state the transition expects must still raise the unit's
    own ProtocolError, mid-flight."""

    @staticmethod
    def corrupt(plane, node, port, owner):
        reg = plane.units[node].regs[port * plane.config.num_switches]
        reg.circuit_id = owner

    def test_ack_crossing_a_channel_owned_by_another_circuit(self):
        topo, plane, engines, stats = build_plane(dims=(4,), num_switches=1)
        circuit, _ = plane.launch_probe(0, 3, 0, force=False, cycle=0)
        cycle = 1
        while plane.probes:  # until the probe has succeeded
            plane.step(cycle)
            cycle += 1
        [ack] = plane.control_flits
        assert ack.kind is ControlFlitKind.ACK
        node, port = circuit.path[0]  # the ack's last hop
        self.corrupt(plane, node, port, 999)
        with pytest.raises(
            ProtocolError,
            match=rf"ack for circuit {circuit.circuit_id} crossed channel "
                  rf"\({port},0\) at node {node} owned by 999",
        ):
            run_until_idle(plane, cycle)

    def test_teardown_of_a_channel_the_circuit_does_not_hold(self):
        topo, plane, engines, stats = build_plane(dims=(4,), num_switches=1)
        circuit = establish(plane, 0, 3)
        node, port = circuit.path[1]
        self.corrupt(plane, node, port, 999)
        plane.start_teardown(circuit, 100)
        with pytest.raises(
            ProtocolError,
            match=rf"node {node} channel \({port},0\) not held by circuit "
                  rf"{circuit.circuit_id} \(status reserved, owner 999\)",
        ):
            run_until_idle(plane, 101)

    def test_backtrack_over_a_channel_the_probe_does_not_hold(self):
        topo, plane, engines, stats = build_plane(
            dims=(3,), num_switches=1, misroute_budget=0
        )
        # Hold 1 -> 2 for a circuit still being set up: the probe from 0
        # reaches node 1, finds nothing to take, and must backtrack.
        [onward] = topo.minimal_ports(1, 2)
        plane.units[1].reserve(onward, 0, 999)
        circuit, probe = plane.launch_probe(0, 2, 0, force=False, cycle=0)
        plane.step(1)
        assert probe.at_node == 1
        node, port = circuit.path[0]
        self.corrupt(plane, node, port, 998)
        with pytest.raises(
            ProtocolError,
            match=rf"node {node} channel \({port},0\) not held by circuit "
                  rf"{circuit.circuit_id} \(status reserved, owner 998\)",
        ):
            plane.step(2)
