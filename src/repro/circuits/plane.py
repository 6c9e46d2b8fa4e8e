"""The wave plane: probes, control flits and transfers advancing in time.

:class:`WavePlane` owns the per-node PCS control units, the circuit table,
all in-flight probes / control flits / wave transfers, and the small
amount of arbitration glue between them (channel *claims*, which make the
Theorem-3 progress argument concrete: a channel freed for a waiting Force
probe is held for that probe rather than racing it against newcomers).

The per-cycle loops are the protocol's hot path and carry their
transitions out in place: ``_step_probes`` decides each due probe's MB-m
step and performs the advance or the backtrack in the same loop body,
``_step_control_flits`` does the same for ACK, TEARDOWN and RELEASE_REQ
hops.  They write channel registers directly after testing them, and
hand a register in the wrong state to the unit's checked accessor, which
raises the :class:`~repro.errors.ProtocolError`.  Rarer transitions --
arrival, failure, waiting on victims, victim release -- and the engine
callbacks stay methods the loops call.

The plane is deliberately ignorant of *policy*: which circuits to request,
when to force, when to tear down -- all of that lives in the CLRP/CARP
engines (:mod:`repro.core`), which the plane calls back into.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Callable, Protocol

from repro.circuits.circuit import Circuit, CircuitState, CircuitTable
from repro.circuits.control import ControlFlit, ControlFlitKind
from repro.circuits.pcs_unit import ChannelStatus, PCSControlUnit
from repro.circuits.probe import Probe, ProbeStatus
from repro.circuits.tables import PortTables
from repro.circuits.wave import WaveTransfer
from repro.errors import ProtocolError
from repro.sim.config import WaveConfig
from repro.sim.events import EventKind, EventLog
from repro.sim.stats import LossRecord, StatsCollector
from repro.topology.base import Topology
from repro.topology.faults import FaultSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.message import Message


class CircuitOwnerEngine(Protocol):
    """Callbacks a protocol engine must provide to the plane."""

    def circuit_established(self, circuit: Circuit, cycle: int) -> None: ...

    def probe_failed(self, probe: Probe, circuit: Circuit, cycle: int) -> None: ...

    def release_requested(self, circuit: Circuit, cycle: int) -> None: ...

    def circuit_released(self, circuit: Circuit, cycle: int) -> None: ...

    def transfer_completed(self, transfer: WaveTransfer, cycle: int) -> None: ...

    def circuit_fault(self, circuit: Circuit, cycle: int) -> None: ...


ChannelKey = tuple[int, int, int]  # (node, out_port, switch)

# Kinds of transfer timeline event, in the order they fire within a cycle.
_RATE, _DELIVER, _COMPLETE = 0, 1, 2


class WavePlane:
    """Control and data plane for the wave-switched subsystem S1..Sk."""

    def __init__(
        self,
        topology: Topology,
        config: WaveConfig,
        stats: StatsCollector,
        faults: FaultSet | None = None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.stats = stats
        self.faults = faults
        # Wiring answers the probe walk needs on every hop, asked once.
        self.ports = PortTables(topology)
        self.units: list[PCSControlUnit] = [
            PCSControlUnit(n, topology.num_ports, config.num_switches)
            for n in range(topology.num_nodes)
        ]
        self.table = CircuitTable()
        self.probes: list[Probe] = []
        self.control_flits: list[ControlFlit] = []
        self.transfers: list[WaveTransfer] = []  # in flight, in start order
        # Transfers are not stepped: start_transfer turns each one's whole
        # timeline into events ``(cycle, kind, start seq, transfer, change
        # in flits sent per cycle)`` on this heap.
        self._transfer_events: list[tuple] = []
        self._transfers_started = 0
        self._streaming_rate = 0  # flits per cycle, all transfers together
        self._transfer_cycle = 0  # next cycle the transfer phase processes
        self._next_probe_id = 1
        self._probes_by_id: dict[int, Probe] = {}
        # Channel claims: freed-channel priority for waiting Force probes.
        self.claims: dict[ChannelKey, int] = {}
        self._probe_claims: dict[int, set[ChannelKey]] = {}
        # Engine per node, registered by the network after construction.
        self.engines: list[CircuitOwnerEngine | None] = [None] * topology.num_nodes
        # Message delivery callback, set by the network.
        self.deliver_message: Callable[["Message", int], None] | None = None
        self.work_done = 0  # incremented by every state-changing event
        # Optional protocol event trace (repro.sim.events).
        self.log: EventLog | None = None
        # Persistent flits-streamed tally per channel, so utilization
        # does not depend on walking the table's released circuits
        # (CLRP replacement and fault recovery tear down many).
        self.streamed_by_channel: dict[ChannelKey, int] = {}

    # -- registration -----------------------------------------------------

    def register_engine(self, node: int, engine: CircuitOwnerEngine) -> None:
        self.engines[node] = engine

    def _engine(self, node: int) -> CircuitOwnerEngine:
        engine = self.engines[node]
        if engine is None:
            raise ProtocolError(f"no protocol engine registered for node {node}")
        return engine

    # -- probe lifecycle ----------------------------------------------------

    def launch_probe(
        self,
        src: int,
        dst: int,
        switch: int,
        *,
        force: bool,
        cycle: int,
    ) -> tuple[Circuit, Probe]:
        """Create a fresh circuit attempt and send its probe.

        Each attempt gets a new circuit id: reservations of an abandoned
        attempt are fully unwound by backtracking, so ids are never reused.
        """
        if src == dst:
            raise ProtocolError("circuits to self are meaningless")
        if not 0 <= switch < self.config.num_switches:
            raise ProtocolError(f"switch {switch} out of range")
        circuit = self.table.create(src, dst, switch)
        probe = Probe(
            probe_id=self._next_probe_id,
            circuit_id=circuit.circuit_id,
            src=src,
            dst=dst,
            switch=switch,
            force=force,
            max_misroutes=self.config.misroute_budget,
            ready_at=cycle + 1,
            circuit=circuit,
        )
        self._next_probe_id += 1
        self.probes.append(probe)
        self._probes_by_id[probe.probe_id] = probe
        if self.log is not None:
            self.log.emit(cycle, EventKind.PROBE_LAUNCH, src, probe.probe_id,
                          circuit=circuit.circuit_id, dst=dst, switch=switch,
                          force=force)
        self.stats.bump("probe.launched")
        if force:
            self.stats.bump("probe.launched_forced")
        return circuit, probe

    def probe_reached_destination(self, probe: Probe, cycle: int) -> None:
        """The whole path is reserved; return the acknowledgment."""
        circuit = probe.circuit
        if not circuit.path:
            raise ProtocolError("probe reached destination with empty path")
        probe.status = ProbeStatus.SUCCEEDED
        if self.log is not None:
            self.log.emit(cycle, EventKind.CIRCUIT_RESERVED, probe.at_node,
                          circuit.circuit_id, hops=len(circuit.path))
        self._finish_probe(probe)
        self.control_flits.append(
            ControlFlit(
                kind=ControlFlitKind.ACK,
                circuit_id=circuit.circuit_id,
                hop_index=len(circuit.path) - 1,
                ready_at=cycle + self.config.setup_hop_delay,
            )
        )
        self.stats.bump("probe.succeeded")
        self.work_done += 1

    def probe_failed(self, probe: Probe, cycle: int) -> None:
        circuit = probe.circuit
        if circuit.path:
            raise ProtocolError(
                f"probe {probe.probe_id} failed with reservations outstanding"
            )
        probe.status = ProbeStatus.FAILED
        circuit.state = CircuitState.DEAD
        if self.log is not None:
            self.log.emit(cycle, EventKind.PROBE_FAIL, probe.at_node,
                          probe.probe_id, circuit=circuit.circuit_id,
                          force=probe.force)
        self._finish_probe(probe)
        self.stats.bump("probe.failed")
        self._engine(probe.src).probe_failed(probe, circuit, cycle)
        self.table.forget(circuit)
        self.work_done += 1

    def _finish_probe(self, probe: Probe) -> None:
        # Identity filter: dataclass ``remove`` would compare every field.
        self.probes = [p for p in self.probes if p is not probe]
        self._probes_by_id.pop(probe.probe_id, None)
        for key in self._probe_claims.pop(probe.probe_id, ()):
            self.claims.pop(key, None)
        for node in probe.history_nodes:
            self.units[node].clear_history(probe.probe_id)
        probe.history_nodes.clear()

    def _wake_claimant(self, node: int, port: int, switch: int,
                       cycle: int) -> None:
        """A channel was freed: wake the probe that claimed it (dozing
        waiters poll sparsely; this keeps their grab latency at one
        cycle)."""
        claimant = self.claims.get((node, port, switch))
        if claimant is None:
            return
        probe = self._probes_by_id.get(claimant)
        if probe is not None and probe.ready_at > cycle + 1:
            probe.ready_at = cycle + 1

    # -- victim release ------------------------------------------------------

    def _wait_on_victims(
        self, probe: Probe, victims: list[tuple[int, int]], cycle: int
    ) -> None:
        """A blocked Force probe requests a victim's release and waits.

        ``victims`` holds ``(port, circuit_id)`` for requested channels
        owned by *established* circuits (Ack Returned set).
        """
        if probe.status is not ProbeStatus.WAITING:
            probe.status = ProbeStatus.WAITING
            probe.waits += 1
            self.stats.bump("probe.waits")
            if self.log is not None:
                self.log.emit(cycle, EventKind.PROBE_WAIT, probe.at_node,
                              probe.probe_id, circuit=probe.circuit_id,
                              victims=len(victims))
        for _port, circuit_id in victims:
            if circuit_id in probe.requested_releases:
                continue
            probe.requested_releases.add(circuit_id)
            self.initiate_victim_release(probe, circuit_id, cycle)
            # One victim at a time is enough to guarantee progress; asking
            # for more would evict working circuits needlessly.
            break
        # Doze: the plane wakes this probe the moment its claimed channel
        # is released (_wake_claimant), so polling sparsely costs nothing
        # on the success path and saves a full candidate scan per cycle.
        probe.ready_at = cycle + 8

    def initiate_victim_release(
        self, probe: Probe, circuit_id: int, cycle: int
    ) -> None:
        """A blocked Force probe asks for a victim circuit's release.

        Claims the requested channel at the probe's node so the eventual
        teardown benefits the requester, then either asks the local engine
        (victim starts here) or sends a RELEASE_REQ control flit towards
        the victim's source along the reverse control path.
        """
        victim = self.table.get(circuit_id)
        node = probe.at_node
        # Claim the victim's channel at this node for the waiting probe.
        for hop_node, hop_port in victim.path:
            if hop_node == node:
                key = (hop_node, hop_port, victim.switch)
                self.claims[key] = probe.probe_id
                self._probe_claims.setdefault(probe.probe_id, set()).add(key)
                break
        if self.log is not None:
            self.log.emit(cycle, EventKind.RELEASE_REQUESTED, node,
                          circuit_id, requester=probe.probe_id)
        self.stats.bump("clrp.victim_releases_requested")
        if victim.src == node:
            self._engine(node).release_requested(victim, cycle)
            self.work_done += 1
            return
        # Remote: walk backwards from this node's hop towards the source.
        hop_index = None
        for i, (hop_node, _port) in enumerate(victim.path):
            if hop_node == node:
                hop_index = i - 1
                break
        if hop_index is None:
            raise ProtocolError(
                f"victim circuit {circuit_id} does not cross node {node}"
            )
        self.control_flits.append(
            ControlFlit(
                kind=ControlFlitKind.RELEASE_REQ,
                circuit_id=circuit_id,
                hop_index=hop_index,
                ready_at=cycle + self.config.setup_hop_delay,
                requester_probe=probe.probe_id,
            )
        )
        self.work_done += 1

    def start_teardown(self, circuit: Circuit, cycle: int) -> None:
        """Source-initiated teardown: a control flit frees hops in order."""
        if circuit.state is not CircuitState.ESTABLISHED:
            raise ProtocolError(
                f"teardown of circuit {circuit.circuit_id} in state "
                f"{circuit.state.value}"
            )
        if circuit.in_use:
            raise ProtocolError(
                f"teardown of in-use circuit {circuit.circuit_id}; the "
                "In-use bit protects messages in transit"
            )
        circuit.state = CircuitState.RELEASING
        if self.log is not None:
            self.log.emit(cycle, EventKind.TEARDOWN_START, circuit.src,
                          circuit.circuit_id)
        self.control_flits.append(
            ControlFlit(
                kind=ControlFlitKind.TEARDOWN,
                circuit_id=circuit.circuit_id,
                hop_index=0,
                ready_at=cycle + self.config.setup_hop_delay,
            )
        )
        self.stats.bump("circuit.teardowns")
        self.work_done += 1

    # -- dynamic faults ------------------------------------------------------

    def on_link_killed(self, node: int, port: int, cycle: int) -> None:
        """React to the directed link ``(node, port)`` dying mid-run.

        Every circuit holding a reservation on the link is handled by
        state: ESTABLISHED circuits are torn down end-to-end (the
        reservations on the surviving prefix would otherwise leak
        forever), SETTING_UP attempts are aborted so the retried probe
        searches around the fault exactly as it would around a busy
        channel, and RELEASING circuits are left alone -- their teardown
        flit performs register bookkeeping only, which works across the
        dead link.
        """
        unit = self.units[node]
        for switch in range(self.config.num_switches):
            if unit.status(port, switch) is not ChannelStatus.RESERVED:
                continue
            owner = unit.owner(port, switch)
            if owner is None:
                continue
            circuit = self.table.get(owner)
            if circuit.state is CircuitState.ESTABLISHED:
                self.fault_teardown(circuit, cycle)
            elif circuit.state is CircuitState.SETTING_UP:
                self._abort_setup(circuit, cycle)

    def fault_teardown(self, circuit: Circuit, cycle: int) -> None:
        """Tear down an established circuit severed by a link fault.

        Unlike :meth:`start_teardown` this may interrupt an in-flight
        transfer: wavefronts past the break are lost (recorded as a
        :class:`~repro.sim.stats.LossRecord` unless the tail had already
        reached the destination), and the source engine is notified via
        ``circuit_fault`` so its cache entry stops accepting traffic.
        The actual release still walks hop by hop as a TEARDOWN control
        flit -- register bookkeeping works across the dead link.
        """
        if circuit.state is not CircuitState.ESTABLISHED:
            return
        severed = [t for t in self.transfers if t.circuit is circuit]
        if severed:
            self.transfers = [
                t for t in self.transfers if t.circuit is not circuit
            ]
            # Cancel the rest of their timelines.  A timeline's rate
            # changes sum to zero, so adding back the pending ones takes
            # out exactly what the transfer streams per cycle right now;
            # flits sent in earlier cycles stay counted.
            pending = []
            for event in self._transfer_events:
                if event[3].circuit is circuit:
                    self._streaming_rate += event[4]
                else:
                    pending.append(event)
            heapify(pending)
            self._transfer_events[:] = pending
        for transfer in severed:
            message = transfer.message
            if (
                not message.delivery_notified
                # delivered_at is known from the start; it counts only
                # once the transfer phase has sent the tail.
                and transfer.last_sent_cycle < self._transfer_cycle
                and cycle >= transfer.delivered_at
            ):
                # The tail already reached the destination; only the
                # window acks were still draining.  Deliver, don't lose.
                message.delivery_notified = True
                if self.deliver_message is not None:
                    self.deliver_message(message, transfer.delivered_at)
            if message.delivery_notified:
                self.stats.bump("wave.transfers_cut_after_delivery")
            else:
                self.stats.bump("wave.transfers_severed")
                self.stats.record_loss(
                    LossRecord(
                        cycle=cycle,
                        msg_id=message.msg_id,
                        node=circuit.src,
                        reason="circuit_severed",
                        flits=message.length,
                    )
                )
        circuit.in_use = False
        circuit.state = CircuitState.RELEASING
        if self.log is not None:
            self.log.emit(cycle, EventKind.CIRCUIT_FAULT_TEARDOWN,
                          circuit.src, circuit.circuit_id,
                          severed=len(severed))
        self.control_flits.append(
            ControlFlit(
                kind=ControlFlitKind.TEARDOWN,
                circuit_id=circuit.circuit_id,
                hop_index=circuit.released_upto,
                ready_at=cycle + self.config.setup_hop_delay,
            )
        )
        self.stats.bump("circuit.fault_teardowns")
        self._engine(circuit.src).circuit_fault(circuit, cycle)
        self.work_done += 1

    def _abort_setup(self, circuit: Circuit, cycle: int) -> None:
        """Abort a SETTING_UP attempt whose reserved path hit a dead link.

        All outstanding reservations unwind immediately (pure register
        bookkeeping) and the source engine gets the standard
        ``probe_failed`` callback, so its retry policy -- next switch,
        Force, wormhole fallback -- applies unchanged; the retried probe
        then treats the dead link as busy and searches around it.  Covers
        both a live probe and the ack-in-flight window (probe already
        finished, circuit not yet established).
        """
        probe = next((p for p in self.probes if p.circuit is circuit), None)
        for hop_node, hop_port in reversed(circuit.path):
            unit = self.units[hop_node]
            unit.unmap_through((hop_port, circuit.switch))
            unit.release(hop_port, circuit.switch, circuit.circuit_id)
            self._wake_claimant(hop_node, hop_port, circuit.switch, cycle)
        circuit.path.clear()
        # Drop any control flit of this attempt (the in-flight ack, or a
        # release request some probe aimed at it -- the circuit is dying).
        self.control_flits = [
            f for f in self.control_flits if f.circuit_id != circuit.circuit_id
        ]
        if self.log is not None:
            self.log.emit(cycle, EventKind.PROBE_FAULT_ABORT, circuit.src,
                          circuit.circuit_id)
        self.stats.bump("probe.fault_aborts")
        if probe is not None:
            self.probe_failed(probe, cycle)
            return
        # Probe already succeeded; the ack we just removed will never
        # arrive.  Report failure through a synthetic probe record.
        circuit.state = CircuitState.DEAD
        ghost = Probe(
            probe_id=-1,
            circuit_id=circuit.circuit_id,
            src=circuit.src,
            dst=circuit.dst,
            switch=circuit.switch,
            force=False,
            max_misroutes=0,
        )
        ghost.status = ProbeStatus.FAILED
        self.stats.bump("probe.failed")
        self._engine(circuit.src).probe_failed(ghost, circuit, cycle)
        self.table.forget(circuit)
        self.work_done += 1

    # -- transfers ------------------------------------------------------------

    def start_transfer(
        self, circuit: Circuit, message: "Message", cycle: int
    ) -> WaveTransfer:
        if circuit.state is not CircuitState.ESTABLISHED:
            raise ProtocolError(
                f"transfer on circuit {circuit.circuit_id} in state "
                f"{circuit.state.value}"
            )
        if circuit.in_use:
            raise ProtocolError(
                f"circuit {circuit.circuit_id} already in use; messages "
                "must serialize on the In-use bit"
            )
        circuit.in_use = True
        transfer = WaveTransfer(
            message=message,
            circuit=circuit,
            rate=self.config.flits_per_cycle,
            window=self.config.window,
            pipe_delay=circuit.length * self.config.wire_delay,
            start_cycle=cycle,
        )
        self.transfers.append(transfer)
        # Nothing can block an established circuit, so the timeline is
        # fixed now.  A transfer started before this cycle's transfer
        # phase streams from this cycle, one started by a completion
        # callback inside the phase from the next.  Only the timeline's
        # outcome is recorded on the transfer (completed_at once it
        # happens); sent / acked are advance()'s working state.
        plan = transfer.schedule(max(cycle, self._transfer_cycle))
        transfer.last_sent_cycle = plan.last_sent_cycle
        transfer.delivered_at = plan.delivered_at
        seq = self._transfers_started
        self._transfers_started = seq + 1
        events = self._transfer_events
        flits = 0
        for at, per_cycle in plan.steps:
            heappush(events, (at, _RATE, seq, transfer, per_cycle - flits))
            flits = per_cycle
        heappush(events, (plan.delivered_at, _DELIVER, seq, transfer, 0))
        heappush(events, (plan.completed_at, _COMPLETE, seq, transfer, 0))
        if self.log is not None:
            self.log.emit(cycle, EventKind.TRANSFER_START, circuit.src,
                          circuit.circuit_id, msg=message.msg_id,
                          flits=message.length)
        self.stats.bump("wave.transfers_started")
        self.work_done += 1
        return transfer

    # -- per-cycle advancement ---------------------------------------------

    def step(self, cycle: int) -> None:
        self._step_control_flits(cycle)
        self._step_probes(cycle)
        self._step_transfers(cycle)

    def _step_probes(self, cycle: int) -> None:
        """One MB-m decision per due probe, carried out where it is made.

        A single pass over the candidate output links in preference
        order -- profitable first, then misroutes if budget remains --
        takes the first FREE one.  Links in the History Store, on a dead
        link, or claimed for another waiting probe (a victim teardown
        must not be raced by a newcomer) are never candidates; the
        probe's own claims stay visible, so a waiting probe keeps
        waiting instead of backtracking.  A Force probe collects, in the
        same pass, the requested channels owned by *established*
        circuits, judged as the paper says: by the Ack Returned bit of
        the local unit (set only on a RESERVED channel; reserve and
        release clear it).
        """
        if not self.probes:
            return
        ports = self.ports
        walk, neighbor = ports.walk, ports.neighbor
        reverse_port, return_port = ports.reverse_port, ports.return_port
        units, claims, faults = self.units, self.claims, self.faults
        counters = self.stats.counters
        log = self.log
        hop_delay = self.config.setup_hop_delay
        stride = self.config.num_switches
        searching, waiting = ProbeStatus.SEARCHING, ProbeStatus.WAITING
        free, reserved = ChannelStatus.FREE, ChannelStatus.RESERVED
        work = 0
        # The due probes, in launch order.  Nothing a step does makes
        # another probe due this cycle (a wake or a launch is for
        # cycle + 1), but it can finish one: re-check the status.
        for probe in [p for p in self.probes if p.ready_at <= cycle]:
            status = probe.status
            if status is not searching and status is not waiting:
                continue
            node = probe.at_node
            if node == probe.dst:
                self.probe_reached_destination(probe, cycle)
                continue
            pid, cid = probe.probe_id, probe.circuit_id
            switch, force = probe.switch, probe.force
            path = probe.circuit.path
            profitable, others = walk[node, probe.dst]
            back_port = None
            if probe.misroutes >= probe.max_misroutes:
                others = ()
            elif others and path:
                # The port straight back over the hop we arrived on: a
                # misroute there is a pure U-turn -- if the search below
                # this node is exhausted the backtrack handles it, so
                # U-turn misroutes only burn budget and lengthen
                # circuits.  None on unidirectional links.
                prev_node, prev_port = path[-1]
                back_port = return_port[prev_node][prev_port]
            unit = units[node]
            regs = unit.regs
            searched = unit.history_store.get(pid, ())
            taken = -1
            victims: list[tuple[int, int]] = []
            for misrouting, candidates in enumerate((profitable, others)):
                for port in candidates:
                    if port in searched or (misrouting and port == back_port):
                        continue
                    if faults is not None and faults.is_faulty(node, port):
                        continue
                    if claims:
                        claimant = claims.get((node, port, switch))
                        if claimant is not None and claimant != pid:
                            continue
                    reg = regs[port * stride + switch]
                    if reg.status is free:
                        taken = port
                        break
                    if force and reg.ack_returned:
                        victims.append((port, reg.circuit_id))
                if taken >= 0:
                    break

            if taken >= 0:
                # Advance: reserve the register this pass just read as
                # FREE, drop our claim on it, map the hop through.
                port = taken
                if misrouting:
                    probe.misroutes += 1
                    counters["probe.misroutes"] = (
                        counters.get("probe.misroutes", 0) + 1
                    )
                probe.backtracking = False
                reg.status = reserved
                reg.circuit_id = cid
                reg.ack_returned = False
                if claims:
                    key = (node, port, switch)
                    if claims.get(key) == pid:
                        del claims[key]
                        self._probe_claims.get(pid, set()).discard(key)
                out_key = (port, switch)
                if path:
                    prev_node, prev_port = path[-1]
                    in_key = (reverse_port[prev_node][prev_port], switch)
                    unit.direct_map[in_key] = out_key
                    unit.reverse_map[out_key] = in_key
                path.append((node, port))
                nxt = neighbor[node][port]
                assert nxt is not None
                probe.at_node = nxt
                probe.ready_at = cycle + hop_delay
                probe.hops += 1
                probe.status = searching
                if log is not None:
                    log.emit(cycle, EventKind.PROBE_HOP, node, pid,
                             circuit=cid, port=port, to=nxt)
                counters["probe.hops"] = counters.get("probe.hops", 0) + 1
                work += 1
                continue

            if force:
                if victims:
                    self._wait_on_victims(probe, victims, cycle)
                    continue
                # Every requested channel belongs to a circuit being
                # established: the probe must backtrack even with Force
                # set (waiting would close a cyclic channel dependency).
                counters["probe.force_backtracks"] = (
                    counters.get("probe.force_backtracks", 0) + 1
                )
            probe.status = searching
            if not path:
                # At the source with nothing left to search: it failed.
                self.probe_failed(probe, cycle)
                continue
            # Backtrack one hop: unmap and release the last reservation,
            # record the link in that node's History Store.
            prev_node, port = path.pop()
            unit = units[prev_node]
            in_key = unit.reverse_map.pop((port, switch), None)
            if in_key is not None:
                unit.direct_map.pop(in_key, None)
            reg = unit.regs[port * stride + switch]
            if reg.status is not reserved or reg.circuit_id != cid:
                unit.release(port, switch, cid)  # raises: not held by cid
            reg.status = free
            reg.circuit_id = None
            reg.ack_returned = False
            history = unit.history_store.get(pid)
            if history is None:
                unit.history_store[pid] = {port}
            else:
                history.add(port)
            probe.history_nodes.add(prev_node)
            probe.at_node = prev_node
            probe.ready_at = cycle + hop_delay
            probe.backtracking = True
            probe.backtracks += 1
            if log is not None:
                log.emit(cycle, EventKind.PROBE_BACKTRACK, prev_node, pid,
                         circuit=cid, port=port)
            counters["probe.backtracks"] = counters.get("probe.backtracks", 0) + 1
            work += 1
        self.work_done += work

    def _step_control_flits(self, cycle: int) -> None:
        if not self.control_flits:
            return
        circuits = self.table.circuits
        units, claims = self.units, self.claims
        hop_delay = self.config.setup_hop_delay
        stride = self.config.num_switches
        ack, teardown = ControlFlitKind.ACK, ControlFlitKind.TEARDOWN
        free, reserved = ChannelStatus.FREE, ChannelStatus.RESERVED
        work = 0
        finished: list[ControlFlit] = []
        # Flits launched by a callback below are due next cycle at the
        # earliest, so the due set is fixed here.
        for flit in [f for f in self.control_flits if f.ready_at <= cycle]:
            cid = flit.circuit_id
            circuit = circuits.get(cid)
            if circuit is None:
                circuit = self.table.get(cid)  # raises: unknown circuit
            kind = flit.kind
            if kind is ack:
                node, port = circuit.path[flit.hop_index]
                reg = units[node].regs[port * stride + circuit.switch]
                if reg.circuit_id != cid:  # raises: crossed a foreign channel
                    units[node].set_ack_returned(port, circuit.switch, cid)
                reg.ack_returned = True
                flit.hop_index -= 1
                flit.ready_at = cycle + hop_delay
                work += 1
                if flit.hop_index < 0:
                    circuit.state = CircuitState.ESTABLISHED
                    circuit.established_at = cycle
                    finished.append(flit)
                    if self.log is not None:
                        self.log.emit(cycle, EventKind.CIRCUIT_ESTABLISHED,
                                      circuit.src, cid,
                                      dst=circuit.dst, hops=circuit.length)
                    self.stats.bump("circuit.established")
                    self._engine(circuit.src).circuit_established(circuit, cycle)
            elif kind is teardown:
                node, port = circuit.path[flit.hop_index]
                switch = circuit.switch
                unit = units[node]
                in_key = unit.reverse_map.pop((port, switch), None)
                if in_key is not None:
                    unit.direct_map.pop(in_key, None)
                reg = unit.regs[port * stride + switch]
                if reg.status is not reserved or reg.circuit_id != cid:
                    unit.release(port, switch, cid)  # raises: not held by cid
                reg.status = free
                reg.circuit_id = None
                reg.ack_returned = False
                if claims:
                    self._wake_claimant(node, port, switch, cycle)
                flit.hop_index += 1
                circuit.released_upto = flit.hop_index
                flit.ready_at = cycle + hop_delay
                work += 1
                if flit.hop_index >= len(circuit.path):
                    circuit.state = CircuitState.DEAD
                    circuit.released_at = cycle
                    finished.append(flit)
                    if self.log is not None:
                        self.log.emit(cycle, EventKind.CIRCUIT_RELEASED,
                                      circuit.src, cid, uses=circuit.uses)
                    self.stats.bump("circuit.released")
                    self._engine(circuit.src).circuit_released(circuit, cycle)
            else:  # RELEASE_REQ
                # Discard if the circuit is already going away (race case
                # from the Theorem 1 proof) -- a first request, or the
                # teardown itself, has overtaken this one.  A circuit still
                # SETTING_UP is fine: the Ack Returned bit was set at the
                # requesting node, so the ack is strictly ahead of us on
                # this same reverse path and the circuit will be
                # established by the time we arrive.
                if circuit.state in (CircuitState.RELEASING, CircuitState.DEAD):
                    flit.discarded = True
                    finished.append(flit)
                    self.stats.bump("clrp.release_req_discarded")
                    continue
                flit.hop_index -= 1
                flit.ready_at = cycle + hop_delay
                work += 1
                if flit.hop_index < 0:
                    finished.append(flit)
                    self._engine(circuit.src).release_requested(circuit, cycle)
        self.work_done += work
        if finished:
            finished_ids = set(map(id, finished))
            self.control_flits = [
                f for f in self.control_flits if id(f) not in finished_ids
            ]

    def _step_transfers(self, cycle: int) -> None:
        """Fire the timeline events due and credit this cycle's flits.

        Same-cycle order is the heap's: rate changes, then deliveries in
        transfer start order, then completions in start order.  Work is
        credited every cycle, not at completion: the progress monitors
        read a cycle without work as a stall.
        """
        self._transfer_cycle = cycle + 1
        events = self._transfer_events
        while events and events[0][0] <= cycle:
            _, kind, _, transfer, rate_change = heappop(events)
            if kind == _RATE:
                self._streaming_rate += rate_change
            elif kind == _DELIVER:
                message = transfer.message
                # A retransmitted copy of a delivered message stays silent.
                if not message.delivery_notified:
                    message.delivery_notified = True
                    if self.deliver_message is not None:
                        self.deliver_message(message, transfer.delivered_at)
                    self.work_done += 1
            else:
                self._complete_transfer(transfer, cycle)
        self.work_done += self._streaming_rate

    def _complete_transfer(self, transfer: WaveTransfer, cycle: int) -> None:
        """The last ack is back: clear the In-use bit, tell the engine
        (which may start the next transfer; it streams from cycle + 1)."""
        transfer.completed_at = cycle
        self.transfers = [t for t in self.transfers if t is not transfer]
        circuit = transfer.circuit
        circuit.in_use = False
        circuit.uses += 1
        circuit.flits_streamed += transfer.length
        for key in circuit.hop_channels():
            self.streamed_by_channel[key] = (
                self.streamed_by_channel.get(key, 0) + transfer.length
            )
        if self.log is not None:
            self.log.emit(cycle, EventKind.TRANSFER_COMPLETE, circuit.src,
                          transfer.message.msg_id,
                          circuit=circuit.circuit_id)
        self.stats.bump("wave.transfers_completed")
        self._engine(circuit.src).transfer_completed(transfer, cycle)

    # -- idleness ---------------------------------------------------------------

    def is_idle(self) -> bool:
        return not self.probes and not self.control_flits and not self.transfers
