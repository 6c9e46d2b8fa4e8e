"""Routing probes (Fig. 4) and the MB-m misrouting-backtracking search.

A probe is a single control flit that walks the control channels of one
wave switch ``Si``, reserving the (control channel, data channel) pair at
each hop.  The MB-m protocol (Gaughan & Yalamanchili [12]) governs the
walk:

* *profitable* links (on a minimal path to the destination) are preferred;
* up to ``m`` *misroutes* over non-minimal links are allowed;
* when no acceptable link is free the probe **backtracks**, releasing the
  last reservation and recording the searched link in the previous node's
  History Store so the same path is never searched twice;
* a probe with the **Force** bit set (CLRP phase 2) does not backtrack on
  channels held by *established* circuits -- it selects a victim and waits
  for its release; it still backtracks when every requested channel
  belongs to a circuit *being established* (waiting there would create the
  cyclic channel dependencies Theorem 1 rules out).

The walk logic lives here: :meth:`Probe.step` reads the node's channel
registers, the History Store, the plane's claims and its
:class:`~repro.circuits.tables.PortTables` in one pass and decides; the
:class:`~repro.circuits.plane.WavePlane` carries the decision out
(reserve and advance, release and retreat, victim release) and moves
probes in simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.circuits.pcs_unit import ChannelStatus
from repro.errors import ProtocolError
from repro.sim.events import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuits.plane import WavePlane


class ProbeStatus(Enum):
    SEARCHING = "searching"
    WAITING = "waiting"  # Force probe waiting on a victim circuit release
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass
class Probe:
    """One routing probe (Fig. 4) plus its search bookkeeping.

    The paper's fields map as: Header bit -- implicit in the type;
    Backtrack bit -- :attr:`backtracking`; Misroute -- :attr:`misroutes`;
    Force -- :attr:`force`; the Xi-offset fields -- derivable from
    :attr:`at_node` and :attr:`dst`.
    """

    probe_id: int
    circuit_id: int
    src: int
    dst: int
    switch: int
    force: bool
    max_misroutes: int
    at_node: int = -1
    misroutes: int = 0
    backtracking: bool = False
    status: ProbeStatus = ProbeStatus.SEARCHING
    ready_at: int = 0
    # Channels whose circuits we have already asked to be released, so a
    # waiting probe does not flood duplicate release requests.
    requested_releases: set[int] = field(default_factory=set)
    # Nodes where this probe wrote History Store entries, so finishing the
    # probe clears only those units instead of sweeping every node.
    history_nodes: set[int] = field(default_factory=set)
    # Statistics.
    hops: int = 0
    backtracks: int = 0
    waits: int = 0

    def __post_init__(self) -> None:
        if self.at_node < 0:
            self.at_node = self.src

    # ------------------------------------------------------------------

    def step(self, plane: "WavePlane", cycle: int) -> None:
        """Perform one decision at the current node.

        Called by the plane when ``ready_at <= cycle``.  Mutates probe and
        channel state through ``plane``.
        """
        status = self.status
        if status is ProbeStatus.SUCCEEDED or status is ProbeStatus.FAILED:
            raise ProtocolError(f"stepping finished probe {self.probe_id}")

        node = self.at_node
        if node == self.dst:
            plane.probe_reached_destination(self, cycle)
            return

        tables = plane.ports
        profitable, others = tables.walk[node, self.dst]
        if self.misroutes >= self.max_misroutes:
            others = ()

        # The port leading straight back over the hop we arrived on: a
        # misroute there is a pure U-turn -- if the search below this node
        # is exhausted the *backtrack* primitive handles it (releasing the
        # reservation and recording history), so U-turn misroutes only
        # burn budget and lengthen circuits.
        back_port = None
        path = plane.table.get(self.circuit_id).path
        if others and path:
            prev_node, prev_port = path[-1]
            # None on unidirectional links (no back-link to U-turn onto).
            back_port = tables.return_port[prev_node][prev_port]

        # One pass over the candidate output links in preference order:
        # profitable first, then misroutes if budget remains.  Links in
        # the History Store, on a dead link, or claimed for another
        # waiting probe (a victim teardown must not be raced by a
        # newcomer) are never candidates; the first FREE one is taken.
        # The probe's own claims stay visible, so a waiting probe keeps
        # waiting instead of backtracking.
        unit = plane.units[node]
        regs = unit.regs
        searched = unit.searched_ports(self.probe_id)
        faults = plane.faults
        claims = plane.claims
        switch = self.switch
        stride = unit.num_switches
        # Requested channels owned by *established* circuits, judged as
        # the paper says: by the Ack Returned bit of the local unit (set
        # only on a RESERVED channel; reserve and release clear it).
        victims: list[tuple[int, int]] = []
        for misrouting, ports in enumerate((profitable, others)):
            for port in ports:
                if port in searched or (misrouting and port == back_port):
                    continue
                if faults is not None and faults.is_faulty(node, port):
                    continue
                if claims:
                    claimant = claims.get((node, port, switch))
                    if claimant is not None and claimant != self.probe_id:
                        continue
                reg = regs[port * stride + switch]
                if reg.status is ChannelStatus.FREE:
                    if misrouting:
                        self.misroutes += 1
                        plane.stats.bump("probe.misroutes")
                    self.backtracking = False
                    plane.advance_probe(self, port, cycle)
                    return
                if self.force and reg.ack_returned:
                    victims.append((port, reg.circuit_id))

        if self.force:
            if victims:
                self._wait_on_victims(plane, victims, cycle)
                return
            # Every requested channel belongs to a circuit being
            # established: the probe must backtrack even with Force set
            # (waiting would close a cyclic channel dependency).
            plane.stats.bump("probe.force_backtracks")

        self._backtrack(plane, cycle)

    # ------------------------------------------------------------------

    def _wait_on_victims(
        self, plane: "WavePlane", victims: list[tuple[int, int]], cycle: int
    ) -> None:
        """Request release of victim circuits and wait for a channel.

        ``victims`` holds ``(port, circuit_id)`` for requested channels
        owned by *established* circuits (Ack Returned set).
        """
        if self.status is not ProbeStatus.WAITING:
            self.status = ProbeStatus.WAITING
            self.waits += 1
            plane.stats.bump("probe.waits")
            if plane.log is not None:
                plane.log.emit(cycle, EventKind.PROBE_WAIT, self.at_node,
                               self.probe_id, circuit=self.circuit_id,
                               victims=len(victims))
        for _port, circuit_id in victims:
            if circuit_id in self.requested_releases:
                continue
            self.requested_releases.add(circuit_id)
            plane.initiate_victim_release(self, circuit_id, cycle)
            # One victim at a time is enough to guarantee progress; asking
            # for more would evict working circuits needlessly.
            break
        # Doze: the plane wakes this probe the moment its claimed channel
        # is released (wake_claimant), so polling sparsely costs nothing
        # on the success path and saves a full candidate scan per cycle.
        self.ready_at = cycle + 8

    def _backtrack(self, plane: "WavePlane", cycle: int) -> None:
        self.status = ProbeStatus.SEARCHING
        circuit = plane.table.get(self.circuit_id)
        if not circuit.path:
            # At the source with nothing left to search: the probe failed.
            plane.probe_failed(self, cycle)
            return
        prev_node, port = circuit.path[-1]
        plane.retreat_probe(self, prev_node, port, cycle)
        self.backtracking = True
        self.backtracks += 1
        plane.stats.bump("probe.backtracks")
