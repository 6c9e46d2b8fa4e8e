"""The S0 wormhole router: input VC queues, crossbar, credit flow control.

Faithful to Fig. 1 of the paper at flit granularity:

* every physical input channel is split into ``w`` virtual channels, each
  with its own flit buffer (``buffer_depth`` flits);
* routing happens once per worm, on the header, at the head of its input
  VC; body flits inherit the header's (output port, output VC);
* the crossbar moves at most one flit per *input* physical channel and one
  flit per *output* physical channel per cycle (virtual channels
  time-multiplex the physical link as in Dally's virtual-channel flow
  control [7]);
* credit-based backpressure: a flit may only be sent when the downstream
  input VC has a free buffer slot; blocked worms sit in place holding
  their channels -- the wormhole contention that wave switching's circuits
  bypass.

Timing: a flit enqueued at cycle ``t`` may move again at ``t + 1``
(1 cycle/hop pipelining); a header may be *routed* from cycle
``t + router_delay`` on, so ``router_delay > 1`` charges extra per-hop
latency to headers only.

:meth:`WormholeRouter.route_phase` / :meth:`~WormholeRouter.traversal_phase`
are the executable spec: only ``Network.step_reference`` runs them.  The
production core is :class:`~repro.network.vectorized.VectorizedCore`,
which shares this router's state under a contract: the flit deques,
``_active`` sets, ``_rr`` dicts and ``link_flits`` lists are held by the
core *by reference* and must keep their identity (mutate in place, never
rebind); the scalar route/credit/ownership state (``InputVC.route``/
``msg``, ``OutputVC.credits``/``owner``, ``eject_owner``, ``_va_rr``)
is core-owned while attached and written back on detach/materialize.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import ProtocolError
from repro.sim.config import WormholeConfig
from repro.sim.events import EventKind, EventLog
from repro.sim.stats import StatsCollector
from repro.topology.base import Topology
from repro.topology.faults import FaultSet
from repro.wormhole.flit import DROP_PORT, EJECT_PORT, Flit
from repro.wormhole.routing import RoutingFunction


class InputVC:
    """One input virtual channel: a flit FIFO plus the worm's route."""

    __slots__ = ("port", "vc", "buffer", "route", "msg")

    def __init__(self, port: int, vc: int) -> None:
        self.port = port
        self.vc = vc
        self.buffer: deque[Flit] = deque()
        # (out_port, out_vc) of the worm currently at the buffer head;
        # None when the head flit is an unrouted header (or buffer empty).
        self.route: tuple[int, int] | None = None
        # msg_id of the routed worm (None whenever route is None); lets
        # fault handling identify which messages cross a dead link.
        self.msg: int | None = None

    def head(self) -> Flit | None:
        return self.buffer[0] if self.buffer else None

    def occupancy(self) -> int:
        return len(self.buffer)


class OutputVC:
    """Output-side virtual channel state: ownership and credits."""

    __slots__ = ("port", "vc", "owner", "credits", "max_credits")

    def __init__(self, port: int, vc: int, credits: int) -> None:
        self.port = port
        self.vc = vc
        # (in_port, in_vc) of the worm that holds this output VC, or None.
        self.owner: tuple[int, int] | None = None
        self.credits = credits
        self.max_credits = credits


class WormholeRouter:
    """One node's S0 router.

    The network wires routers together after construction via
    :meth:`connect`; the local processor side is reached through
    :meth:`inject_flit` (injection queue) and the ``deliver`` callback
    (ejection channel).
    """

    def __init__(
        self,
        node: int,
        topology: Topology,
        config: WormholeConfig,
        routing: RoutingFunction,
        stats: StatsCollector,
        deliver: Callable[[Flit, int], None],
        faults: FaultSet | None = None,
    ) -> None:
        self.node = node
        self.topology = topology
        self.config = config
        self.routing = routing
        self.stats = stats
        self.deliver = deliver
        self.faults = faults
        w = config.vcs
        ports = topology.num_ports
        self.inject_port = ports  # input-side index of the injection queue
        # Input VCs: physical ports 0..ports-1 plus the injection port.
        self.inputs: list[list[InputVC]] = [
            [InputVC(p, v) for v in range(w)] for p in range(ports + 1)
        ]
        # Output VCs for physical ports; ejection tracked separately below.
        self.outputs: list[list[OutputVC]] = [
            [OutputVC(p, v, config.buffer_depth) for v in range(w)]
            for p in range(ports)
        ]
        # Ejection: one physical delivery channel, w VCs, no credit limit
        # (the NI always consumes -- the standard consumption assumption).
        self.eject_owner: list[tuple[int, int] | None] = [None] * w
        # Wiring: downstream[port] = (router, its input port) or None.
        self.downstream: list[tuple["WormholeRouter", int] | None] = [None] * ports
        # Upstream credit targets: for each input (port, vc), the upstream
        # OutputVC to credit when a flit leaves the buffer.
        self.upstream: list[list[OutputVC | None]] = [
            [None] * w for _ in range(ports + 1)
        ]
        self._active: set[tuple[int, int]] = set()  # input VCs with flits
        # Active-set registry (ActivityTracker.active_routers) this router
        # registers with on the empty<->non-empty transitions of _active;
        # None for routers driven standalone in unit tests.
        self.active_set: set[int] | None = None
        # NI registry (ActivityTracker.active_nis): the local NI parks
        # itself when its injection backlog is blocked on buffer space,
        # so whenever a flit leaves an injection-row buffer the router
        # re-registers the NI to pump again next cycle.
        self.ni_active_set: set[int] | None = None
        self._rr: dict[int, int] = {}  # per-out-port round-robin pointer
        self._va_rr = 0  # VC-allocation rotation for adaptive fairness
        # Called (msg_id, node, cycle, reason) when a worm is poisoned
        # because every candidate output is faulty; wired by the network
        # so the loss is recorded centrally.
        self.drop_sink: Callable[[int, int, int, str], None] | None = None
        # Flits transmitted per output physical port (link utilization).
        self.link_flits: list[int] = [0] * ports
        # Optional event trace (set by Network.attach_event_log).  Only
        # head/tail flits emit, so a traced run records worm *extent*
        # movement without a record per body flit.
        self.log: EventLog | None = None

    # -- wiring ----------------------------------------------------------

    def connect(self, port: int, downstream: "WormholeRouter", their_port: int) -> None:
        """Attach this router's output ``port`` to a neighbour's input port."""
        self.downstream[port] = (downstream, their_port)
        for vc in range(self.config.vcs):
            downstream.upstream[their_port][vc] = self.outputs[port][vc]

    # -- local processor interface ----------------------------------------

    def injection_space(self, vc: int) -> int:
        """Free flit slots in injection VC ``vc``."""
        return self.config.buffer_depth - self.inputs[self.inject_port][vc].occupancy()

    def inject_flit(self, flit: Flit, vc: int, cycle: int) -> None:
        """Enqueue one flit from the local NI into the injection queue."""
        if self.injection_space(vc) <= 0:
            raise ProtocolError(
                f"injection VC {vc} full at node {self.node}; "
                "caller must respect injection_space()"
            )
        self._enqueue(flit, self.inject_port, vc, cycle)

    # -- internals ---------------------------------------------------------

    def _enqueue(self, flit: Flit, port: int, vc: int, cycle: int) -> None:
        flit.arrival = cycle
        if not self._active and self.active_set is not None:
            self.active_set.add(self.node)
        self.inputs[port][vc].buffer.append(flit)
        self._active.add((port, vc))

    def _free_output_vc(
        self, options: list[tuple[int, tuple[int, ...]]]
    ) -> tuple[int, int] | None:
        """Pick a free output VC among candidate options.

        Prefers, among free VCs, the one with the most credits (helps
        adaptive routing spread load); breaks ties by a rotating offset so
        no port is systematically favoured.
        """
        best: tuple[int, int] | None = None
        best_key = -1
        n = len(options)
        if n == 0:
            return None
        start = self._va_rr % n
        for i in range(n):
            port, vcs = options[(start + i) % n]
            if self.faults is not None and self.faults.is_faulty(self.node, port):
                continue
            if self.downstream[port] is None:
                continue
            for vc in vcs:
                out = self.outputs[port][vc]
                if out.owner is None and out.credits > best_key:
                    best = (port, vc)
                    best_key = out.credits
        return best

    def route_phase(self, cycle: int) -> None:
        """Route-compute + VC-allocate every eligible header (RC/VA)."""
        delay = self.config.router_delay
        for key in list(self._active):
            port, vc = key
            ivc = self.inputs[port][vc]
            head = ivc.head()
            if head is None or not head.is_head or ivc.route is not None:
                continue
            if cycle < head.arrival + delay:
                continue
            if head.dst == self.node:
                # Claim an ejection VC (worm atomicity on the delivery path).
                granted = None
                for ev in range(self.config.vcs):
                    if self.eject_owner[ev] is None:
                        granted = ev
                        break
                if granted is None:
                    self.stats.bump("wormhole.eject_vc_stall")
                    continue
                self.eject_owner[granted] = key
                ivc.route = (EJECT_PORT, granted)
                ivc.msg = head.msg_id
                continue
            tiers = self.routing.candidates(self.node, head.dst, head)
            choice = None
            for tier in tiers:
                choice = self._free_output_vc(tier)
                if choice is not None:
                    break
            if choice is None:
                if self.faults is not None and self._all_routes_faulty(tiers):
                    # Every candidate output is dead: blocking would wedge
                    # this VC (and everything behind it) until a heal that
                    # may never come.  Poison the route; traversal drains
                    # the worm with a structured loss record.
                    ivc.route = (DROP_PORT, 0)
                    ivc.msg = head.msg_id
                    self.stats.bump("wormhole.worms_poisoned")
                    if self.drop_sink is not None:
                        self.drop_sink(head.msg_id, self.node, cycle, "no_route")
                    continue
                self.stats.bump("wormhole.va_stall")
                continue
            out_port, out_vc = choice
            self.outputs[out_port][out_vc].owner = key
            ivc.route = (out_port, out_vc)
            ivc.msg = head.msg_id
            self._va_rr += 1
            self.stats.bump("wormhole.headers_routed")

    def _all_routes_faulty(self, tiers) -> bool:
        """True when every connected candidate output port is faulty."""
        assert self.faults is not None
        saw_candidate = False
        for tier in tiers:
            for port, _vcs in tier:
                if self.downstream[port] is None:
                    continue
                saw_candidate = True
                if not self.faults.is_faulty(self.node, port):
                    return False
        return saw_candidate

    def traversal_phase(self, cycle: int) -> int:
        """Switch + link traversal: move at most one flit per in/out port.

        Returns the number of flits moved (the network's progress signal).
        """
        if not self._active:
            return 0
        moved = 0
        used_inputs: set[int] = set()
        if self.faults is not None:
            moved += self._drain_poisoned(cycle, used_inputs)
        # Gather requests per output port.
        requests: dict[int, list[tuple[int, int]]] = {}
        for key in self._active:
            port, vc = key
            ivc = self.inputs[port][vc]
            if ivc.route is None:
                continue
            head = ivc.head()
            if head is None or head.arrival >= cycle:
                continue
            out_port, out_vc = ivc.route
            if out_port == DROP_PORT:
                continue  # drained by _drain_poisoned
            if out_port != EJECT_PORT:
                if self.outputs[out_port][out_vc].credits <= 0:
                    self.stats.bump("wormhole.credit_stall")
                    continue
            requests.setdefault(out_port, []).append(key)
        w = self.config.vcs
        for out_port, reqs in requests.items():
            # Round-robin arbitration among requesting input VCs.
            reqs.sort(key=lambda k: k[0] * w + k[1])
            ptr = self._rr.get(out_port, 0)
            reqs = [
                k for k in reqs
                if k[0] not in used_inputs
            ]
            if not reqs:
                continue
            winner = min(
                reqs,
                key=lambda k: ((k[0] * w + k[1]) - ptr)
                % ((self.topology.num_ports + 1) * w),
            )
            self._rr[out_port] = (winner[0] * w + winner[1] + 1) % (
                (self.topology.num_ports + 1) * w
            )
            used_inputs.add(winner[0])
            self._move_flit(winner, cycle)
            moved += 1
        return moved

    def _drain_poisoned(self, cycle: int, used_inputs: set[int]) -> int:
        """Discard one flit per poisoned worm (DROP routes), crediting
        upstream exactly as a real traversal would."""
        dropped = 0
        for key in list(self._active):
            port, vc = key
            ivc = self.inputs[port][vc]
            if ivc.route is None or ivc.route[0] != DROP_PORT:
                continue
            head = ivc.head()
            if head is None or head.arrival >= cycle:
                continue
            flit = ivc.buffer.popleft()
            if not ivc.buffer:
                self._active.discard(key)
                if not self._active and self.active_set is not None:
                    self.active_set.discard(self.node)
            up = self.upstream[port][vc]
            if up is not None:
                up.credits += 1
                if up.credits > up.max_credits:
                    raise ProtocolError(
                        f"credit overflow on node {self.node} input ({port},{vc})"
                    )
            elif port == self.inject_port and self.ni_active_set is not None:
                self.ni_active_set.add(self.node)
            self.stats.bump("wormhole.flits_dropped")
            if flit.is_tail:
                ivc.route = None
                ivc.msg = None
            used_inputs.add(port)
            dropped += 1
        return dropped

    def _move_flit(self, key: tuple[int, int], cycle: int) -> None:
        port, vc = key
        ivc = self.inputs[port][vc]
        assert ivc.route is not None
        out_port, out_vc = ivc.route
        flit = ivc.buffer.popleft()
        if not ivc.buffer:
            self._active.discard(key)
            if not self._active and self.active_set is not None:
                self.active_set.discard(self.node)
        # Credit back to the upstream output VC feeding this buffer.
        up = self.upstream[port][vc]
        if up is not None:
            up.credits += 1
            if up.credits > up.max_credits:
                raise ProtocolError(
                    f"credit overflow on node {self.node} input ({port},{vc})"
                )
        elif port == self.inject_port and self.ni_active_set is not None:
            self.ni_active_set.add(self.node)
        if out_port == EJECT_PORT:
            self.deliver(flit, cycle)
            if flit.is_tail:
                self.eject_owner[out_vc] = None
                ivc.route = None
                ivc.msg = None
            self.stats.bump("wormhole.flits_ejected")
            return
        if flit.is_head:
            self.routing.note_hop(self.node, out_port, flit)
        out = self.outputs[out_port][out_vc]
        out.credits -= 1
        down = self.downstream[out_port]
        assert down is not None, "routed to an unconnected port"
        router, their_port = down
        router._enqueue(flit, their_port, out_vc, cycle)
        self.link_flits[out_port] += 1
        self.stats.bump("wormhole.flits_moved")
        if self.log is not None and (flit.is_head or flit.is_tail):
            self.log.emit(
                cycle,
                EventKind.WORM_HEAD_ADVANCE if flit.is_head
                else EventKind.WORM_TAIL_ADVANCE,
                self.node, flit.msg_id, port=out_port, to=router.node,
            )
        if flit.is_tail:
            out.owner = None
            ivc.route = None
            ivc.msg = None

    # -- fault handling ----------------------------------------------------

    def worms_routed_via(self, out_port: int) -> set[int]:
        """msg_ids of worms currently routed through output ``out_port``."""
        out: set[int] = set()
        for row in self.inputs:
            for ivc in row:
                if ivc.route is not None and ivc.route[0] == out_port:
                    assert ivc.msg is not None
                    out.add(ivc.msg)
        return out

    def purge_message(self, msg_id: int) -> int:
        """Remove every flit of ``msg_id`` from this router.

        Credits upstream per removed flit and releases any output VC or
        ejection channel the worm holds, so the post-purge state satisfies
        the credit-conservation invariant.  Returns flits removed.
        """
        removed = 0
        for row in self.inputs:
            for ivc in row:
                if ivc.buffer and any(f.msg_id == msg_id for f in ivc.buffer):
                    kept = [f for f in ivc.buffer if f.msg_id != msg_id]
                    gone = len(ivc.buffer) - len(kept)
                    # In place, not a fresh deque: the vectorized core
                    # holds this buffer by reference.
                    ivc.buffer.clear()
                    ivc.buffer.extend(kept)
                    up = self.upstream[ivc.port][ivc.vc]
                    if up is not None:
                        up.credits += gone
                        if up.credits > up.max_credits:
                            raise ProtocolError(
                                f"credit overflow purging msg {msg_id} at "
                                f"node {self.node} input ({ivc.port},{ivc.vc})"
                            )
                    elif (ivc.port == self.inject_port
                          and self.ni_active_set is not None):
                        self.ni_active_set.add(self.node)
                    removed += gone
                if ivc.msg == msg_id and ivc.route is not None:
                    key = (ivc.port, ivc.vc)
                    out_port, out_vc = ivc.route
                    if out_port == EJECT_PORT:
                        if self.eject_owner[out_vc] == key:
                            self.eject_owner[out_vc] = None
                    elif out_port >= 0:
                        out = self.outputs[out_port][out_vc]
                        if out.owner == key:
                            out.owner = None
                    ivc.route = None
                    ivc.msg = None
                if not ivc.buffer:
                    self._active.discard((ivc.port, ivc.vc))
        if not self._active and self.active_set is not None:
            self.active_set.discard(self.node)
        return removed

    # -- introspection (verification / debugging) -------------------------

    def busy(self) -> bool:
        return bool(self._active)

    def occupancy(self) -> int:
        """Total flits buffered in this router."""
        return sum(
            self.inputs[p][v].occupancy() for p, v in self._active
        )

    def blocked_worms(self, cycle: int) -> list[dict]:
        """Describe every worm that wanted to move this cycle but could not.

        Used by the deadlock detector to build the wait-for graph.  Each
        entry reports the input VC the worm head occupies, its routed
        output (if any), and why it is stalled.
        """
        out = []
        for key in self._active:
            port, vc = key
            ivc = self.inputs[port][vc]
            head = ivc.head()
            if head is None:
                continue
            entry = {
                "node": self.node,
                "in_port": port,
                "in_vc": vc,
                "msg_id": head.msg_id,
                "route": ivc.route,
                "dst": head.dst,
            }
            if ivc.route is None and head.is_head:
                entry["reason"] = "unrouted"
                out.append(entry)
            elif ivc.route is not None and ivc.route[0] not in (
                EJECT_PORT, DROP_PORT
            ):
                op, ov = ivc.route
                if self.outputs[op][ov].credits <= 0:
                    entry["reason"] = "no_credit"
                    out.append(entry)
        return out
