"""The Network: topology + routers + NIs + wave plane, steppable by cycle.

``Network.step()`` advances one base-clock cycle:

1. every NI runs its protocol engine and pumps wormhole injection;
2. the wave plane advances control flits, probes and transfers;
3. every S0 router routes eligible headers (RC/VA);
4. every S0 router moves flits (SA/ST/LT) with credit return.

The per-cycle ordering is fixed and documented so runs are exactly
reproducible; all intra-cycle interactions are pipelined by the
"arrived this cycle may not move this cycle" rule in the router.
"""

from __future__ import annotations

from repro.circuits.plane import WavePlane
from repro.core.baseline import WormholeOnlyEngine
from repro.core.carp import CARPEngine, CircuitClose, CircuitOpen
from repro.core.circuit_cache import CircuitCache
from repro.core.clrp import CLRPEngine
from repro.core.replacement import make_replacement
from repro.errors import ConfigError
from repro.network.activity import ActivityTracker
from repro.network.interface import NetworkInterface
from repro.network.vectorized import VectorizedCore
from repro.network.message import Message
from repro.sim.config import NetworkConfig
from repro.sim.events import EventKind
from repro.sim.rng import SimRandom
from repro.sim.stats import LossRecord, MessageRecord, StatsCollector
from repro.topology import build_topology
from repro.topology.faults import KILL, FaultSchedule, FaultSet
from repro.wormhole.router import WormholeRouter
from repro.wormhole.routing import make_routing


class Network:
    """A complete simulated machine."""

    def __init__(
        self,
        config: NetworkConfig,
        *,
        faults: FaultSet | None = None,
        rng: SimRandom | None = None,
    ) -> None:
        self.config = config
        self.stats = StatsCollector()
        self.rng = rng if rng is not None else SimRandom(config.seed)
        self.topology = build_topology(config.topology, config.dims)
        self.faults = faults
        # Dynamic fault schedules drain their due events at the top of
        # every step; a plain static FaultSet has no events to drain.
        self.fault_schedule: FaultSchedule | None = (
            faults if isinstance(faults, FaultSchedule) else None
        )
        self.cycle = 0
        self.work_counter = 0
        self.log = None  # event log, set by attach_event_log
        # Active-set registries: step() touches only registered components
        # and is_idle() reads counters instead of scanning every node.
        self.activity = ActivityTracker()

        routing = make_routing(
            config.wormhole.routing, self.topology, config.wormhole.vcs
        )
        # Routers first (delivery callbacks are rebound by the NIs).
        self.routers: list[WormholeRouter] = [
            WormholeRouter(
                node=n,
                topology=self.topology,
                config=config.wormhole,
                routing=routing,
                stats=self.stats,
                deliver=lambda flit, cycle: None,  # NI rebinds below
                faults=faults,
            )
            for n in range(self.topology.num_nodes)
        ]
        for node in range(self.topology.num_nodes):
            for port in self.topology.connected_ports(node):
                nbr = self.topology.neighbor(node, port)
                assert nbr is not None
                self.routers[node].connect(
                    port, self.routers[nbr], self.topology.reverse_port(node, port)
                )

        self.interfaces: list[NetworkInterface] = [
            NetworkInterface(n, self.routers[n], self.stats, self.topology.distance)
            for n in range(self.topology.num_nodes)
        ]
        for router in self.routers:
            router.active_set = self.activity.active_routers
            router.ni_active_set = self.activity.active_nis
            router.drop_sink = self._on_worm_poisoned
        for ni in self.interfaces:
            ni.tracker = self.activity
            if config.reliability is not None:
                ni.configure_reliability(config.reliability, self._deliver_ack)

        # Wave plane and protocol engines.
        self.plane: WavePlane | None = None
        if config.protocol == "wormhole":
            for ni in self.interfaces:
                ni.set_engine(
                    WormholeOnlyEngine(ni.node, ni, self.stats, self.topology)
                )
        else:
            wave = config.wave
            if wave is None:  # pragma: no cover - guarded by NetworkConfig
                raise ConfigError("wave protocols need a WaveConfig")
            self.plane = WavePlane(self.topology, wave, self.stats, faults)
            self.plane.deliver_message = self._deliver_circuit_message
            engine_cls = CLRPEngine if config.protocol == "clrp" else CARPEngine
            for ni in self.interfaces:
                cache = CircuitCache(
                    wave.circuit_cache_size,
                    make_replacement(wave.replacement, self.rng.fork(f"repl{ni.node}")),
                )
                engine = engine_cls(
                    ni.node, ni, self.stats, self.topology, self.plane, cache
                )
                ni.set_engine(engine)
                self.plane.register_engine(ni.node, engine)

        # Struct-of-arrays stepping core, built lazily on the first step
        # with a busy router (after all wiring above is final).
        # ``active`` and ``vectorized`` both name it; ``reference`` binds
        # the executable spec instead.
        self._core: VectorizedCore | None = None
        if config.backend == "reference":
            self.step = self.step_reference  # type: ignore[method-assign]

    def attach_event_log(self, log) -> None:
        """Enable protocol event tracing (:mod:`repro.sim.events`).

        Accepts any sink speaking the ``emit`` protocol -- an
        :class:`~repro.sim.events.EventLog` or a bounded
        :class:`~repro.observe.trace.Tracer` ring buffer -- and wires it
        into every emitting component: the wave plane, the protocol
        engines, the wormhole routers (worm head/tail advance) and the
        network interfaces (retransmits).
        """
        self.log = log
        if self.plane is not None:
            self.plane.log = log
        for router in self.routers:
            router.log = log
        for ni in self.interfaces:
            ni.log = log
            if ni.engine is not None:
                ni.engine.log = log
        # The core caches per-router log references; attach() re-reads
        # them.
        if self._core is not None and self._core.attached:
            self._core.detach()

    # -- injection -------------------------------------------------------

    def inject(self, item) -> None:
        """Feed one workload item (message or CARP directive) in."""
        if isinstance(item, Message):
            self.stats.new_message(
                MessageRecord(
                    msg_id=item.msg_id,
                    src=item.src,
                    dst=item.dst,
                    length=item.length,
                    created=item.created,
                )
            )
            self.interfaces[item.src].on_message(item, self.cycle)
        elif isinstance(item, (CircuitOpen, CircuitClose)):
            self.interfaces[item.node].on_directive(item, self.cycle)
        else:
            raise ConfigError(f"cannot inject {type(item).__name__}")

    def _deliver_circuit_message(self, msg: Message, cycle: int) -> None:
        self.interfaces[msg.dst].on_circuit_delivery(msg, cycle)

    def _deliver_ack(self, src: int, msg_id: int, due: int) -> None:
        """Reliability-layer ack arriving back at the source NI."""
        self.interfaces[src].receive_ack(msg_id, due)

    # -- dynamic faults -----------------------------------------------------

    def _apply_due_faults(self, cycle: int) -> None:
        """Drain the schedule's events due at ``cycle`` and react.

        Each event is applied (fault-set membership changes) *before* its
        protocol reaction runs, and events are processed in schedule
        order so same-cycle heal/kill sequences stay order-faithful.
        """
        sched = self.fault_schedule
        assert sched is not None
        for ev in sched.pop_due(cycle):
            sched.apply(ev)
            self.work_counter += 1
            nbr = self.topology.neighbor(ev.node, ev.port)
            assert nbr is not None
            if ev.kind == KILL:
                self.stats.bump("fault.links_killed")
                if self.log is not None:
                    self.log.emit(
                        cycle, EventKind.LINK_KILLED, ev.node, ev.port, nbr=nbr
                    )
                self._react_link_killed(ev.node, ev.port, cycle)
                if self.topology.bidirectional:
                    # fail_link killed the reverse direction too.
                    self._react_link_killed(
                        nbr, self.topology.reverse_port(ev.node, ev.port), cycle
                    )
            else:
                self.stats.bump("fault.links_healed")
                if self.log is not None:
                    self.log.emit(
                        cycle, EventKind.LINK_HEALED, ev.node, ev.port, nbr=nbr
                    )

    def _react_link_killed(self, node: int, port: int, cycle: int) -> None:
        """Protocol reaction to one *directed* link going down."""
        if self.plane is not None:
            self.plane.on_link_killed(node, port, cycle)
        # Worms routed across the dead link exist (as routes) only at its
        # endpoint router; purge them network-wide.
        for msg_id in sorted(self.routers[node].worms_routed_via(port)):
            self._purge_worm(msg_id, node, cycle)

    def _purge_worm(self, msg_id: int, node: int, cycle: int) -> None:
        removed = 0
        for router in self.routers:
            removed += router.purge_message(msg_id)
        rec = self.stats.messages.get(msg_id)
        if rec is not None:
            removed += self.interfaces[rec.src].purge_pending(msg_id)
        self.stats.bump("fault.worms_purged")
        self.stats.record_loss(
            LossRecord(
                cycle=cycle, msg_id=msg_id, node=node,
                reason="link_down", flits=removed,
            )
        )
        if self.log is not None:
            self.log.emit(cycle, EventKind.WORM_DROPPED, node, msg_id,
                          flits=removed, reason="link_down")

    def _on_worm_poisoned(self, msg_id: int, node: int, cycle: int,
                          reason: str) -> None:
        """A router poisoned a worm whose every route is faulty: the
        flits drain and are dropped, so record the loss once here."""
        self.stats.record_loss(
            LossRecord(cycle=cycle, msg_id=msg_id, node=node, reason=reason)
        )
        if self.log is not None:
            self.log.emit(cycle, EventKind.WORM_DROPPED, node, msg_id,
                          reason=reason)

    # -- time ---------------------------------------------------------------

    def step(self) -> None:
        """Advance one cycle, touching only *active* components.

        The router phases run inside
        :class:`~repro.network.vectorized.VectorizedCore` over flat
        channel-state arrays.  Cycle-exact with :meth:`step_reference`
        (the original O(N) loop):

        * NIs run in sorted node order; an NI's ``pre_cycle`` never
          activates another NI, and on a drained NI it is a no-op, so
          iterating a sorted snapshot of the registry matches the full
          scan exactly.
        * Skipping the wave plane when it is idle is safe because
          ``WavePlane.step`` over empty probe/flit/transfer lists has no
          effect.
        * Routers run in sorted node order for both phases (credit
          returns flow upstream mid-traversal, so order matters), each
          over its own ``_active`` set in that set's iteration order.  The
          snapshot taken before the route phase equals the live busy set:
          routing never en/de-queues flits, and a router first activated
          *during* the traversal loop holds only flits with
          ``arrival == cycle``, which cannot move this cycle in the
          reference loop either.

        Fault reactions hand state back to the router objects first (they
        purge worms through the object API); anything reading router
        scalars calls :meth:`materialize_views` first.
        """
        cycle = self.cycle
        if self.fault_schedule is not None and self.fault_schedule.has_due(cycle):
            if self._core is not None and self._core.attached:
                self._core.detach()
            self._apply_due_faults(cycle)
        work = 0
        tracker = self.activity
        if tracker.active_nis:
            for idx in sorted(tracker.active_nis):
                work += self.interfaces[idx].pre_cycle(cycle)
        plane = self.plane
        if plane is not None and not plane.is_idle():
            before = plane.work_done
            plane.step(cycle)
            work += plane.work_done - before
        if tracker.active_routers:
            core = self._core
            if core is None:
                core = self._core = VectorizedCore(self)
            if not core.attached:
                core.attach()
            work += core.step(cycle, sorted(tracker.active_routers))
        self.work_counter += work
        self.cycle = cycle + 1

    def materialize_views(self) -> None:
        """Refresh router-object state from the vectorized core's arrays.

        No-op on ``reference`` and while the core is detached (the
        objects are already live).  Every reader of per-router
        routing/credit state calls it first: the wait graph, the credit
        invariant, the end of ``Simulator.run``, tests.
        """
        if self._core is not None and self._core.attached:
            self._core.materialize()

    def step_reference(self) -> None:
        """The original O(num_nodes) loop, kept as the executable spec
        for the cycle-exactness tests (see tests/integration/
        test_cycle_exact.py)."""
        cycle = self.cycle
        if self.fault_schedule is not None and self.fault_schedule.has_due(cycle):
            self._apply_due_faults(cycle)
        work = 0
        for ni in self.interfaces:
            work += ni.pre_cycle(cycle)
        if self.plane is not None:
            before = self.plane.work_done
            self.plane.step(cycle)
            work += self.plane.work_done - before
        for router in self.routers:
            if router.busy():
                router.route_phase(cycle)
        for router in self.routers:
            if router.busy():
                work += router.traversal_phase(cycle)
        self.work_counter += work
        self.cycle = cycle + 1

    def run(self, cycles: int) -> None:
        """Convenience: step ``cycles`` times (tests and examples)."""
        for _ in range(cycles):
            self.step()

    # -- state queries ------------------------------------------------------

    def is_idle(self) -> bool:
        """O(1) idleness from the exact activity counters.

        Deliberately does *not* consult the step registries (an NI may
        stay registered one spurious cycle); the counters below mirror
        the old O(N) scan bit for bit.
        """
        tracker = self.activity
        if tracker.active_routers:
            return False
        if tracker.ni_queue_flits or tracker.engine_pending:
            return False
        if self.plane is not None and not self.plane.is_idle():
            return False
        return True

    def recovery_pending(self) -> bool:
        """True while any source NI holds unacked messages or queued acks.

        Only meaningful with ``config.reliability`` set; the livelock
        monitor uses this to distinguish "waiting out a retransmission
        timer" from a genuine stall.
        """
        if self.config.reliability is None:
            return False
        return any(ni.recovery_pending() for ni in self.interfaces)

    def outstanding_messages(self) -> int:
        return self.stats.outstanding

    def check_deadlock(self) -> None:
        """Raise :class:`~repro.errors.DeadlockError` on a wait-for cycle."""
        from repro.verify.deadlock import assert_no_deadlock

        assert_no_deadlock(self)
