"""Active-set registries: the bookkeeping behind O(active) stepping.

A cycle-accurate simulator spends most of its time asking components
"do you have anything to do?".  At low load the answer is almost always
no, so :class:`ActivityTracker` inverts the question: routers and NIs
*register* themselves when they gain work (a flit arrival, a queued
worm, a pending buffer re-allocation) and *deregister* when they drain.
``Network.step()`` then touches only registered components, and
``Network.is_idle()`` collapses to a couple of counter checks.

Exactness contract (see DESIGN.md §9):

* ``active_routers`` holds exactly the routers whose ``busy()`` is True
  (some input VC buffers a flit).  Registration happens in
  ``WormholeRouter._enqueue`` on the empty->non-empty transition and
  deregistration in ``_move_flit`` on the non-empty->empty transition.
* ``active_nis`` holds every NI whose ``pre_cycle`` hook could do
  something next cycle: an injection backlog with free router buffer
  space, pending acks/retransmits, or an engine with per-cycle work.
  An NI whose backlog is blocked on buffer space parks itself -- the
  router re-registers it when a flit leaves an injection-row buffer
  (``WormholeRouter.ni_active_set`` / ``VectorizedCore.active_nis``),
  which is the only way space frees.  An NI may be registered
  spuriously for a cycle; that is harmless because ``pre_cycle`` on a
  drained or blocked NI is a no-op, exactly as it was in the O(N) loop.
* ``ni_queue_flits`` counts flits sitting in NI injection queues
  (``sum(ni.pending_wormhole_flits())`` kept incrementally).
* ``engine_pending`` counts messages parked inside protocol engines
  awaiting a circuit (``sum(ni.pending_engine_messages())`` kept
  incrementally via :meth:`CircuitEngineBase._note_pending`).

The idleness predicate ``is_idle()`` therefore never consults the
*step* registries (whose contents may be conservatively stale for one
cycle); it only reads the exact counters plus the wave plane's in-flight
lists, which keeps it byte-identical to the old O(N) scan.
"""

from __future__ import annotations


class ActivityTracker:
    """Per-network registries and counters for active-set stepping."""

    __slots__ = ("active_routers", "active_nis", "ni_queue_flits",
                 "engine_pending")

    def __init__(self) -> None:
        # Node indices of routers with at least one buffered flit.
        self.active_routers: set[int] = set()
        # Node indices of NIs whose pre_cycle hook must run.
        self.active_nis: set[int] = set()
        # Flits queued in NI injection queues, network-wide.
        self.ni_queue_flits: int = 0
        # Messages held by protocol engines awaiting circuits.
        self.engine_pending: int = 0

    # -- exactness check (used by tests, not by the hot path) -----------

    def validate(self, network) -> None:
        """Assert every counter against the O(N) ground truth."""
        busy = {r.node for r in network.routers if r.busy()}
        if busy != self.active_routers:
            raise AssertionError(
                f"router registry drift: registered={sorted(self.active_routers)}"
                f" busy={sorted(busy)}"
            )
        queued = sum(ni.pending_wormhole_flits() for ni in network.interfaces)
        if queued != self.ni_queue_flits:
            raise AssertionError(
                f"ni_queue_flits drift: counter={self.ni_queue_flits}"
                f" actual={queued}"
            )
        # ``engine_pending`` counts messages parked in protocol engines
        # *plus* messages the reliability layer still tracks as unacked
        # (both register via ``note_pending`` and both pin idleness).
        pending = sum(
            ni.pending_engine_messages() + len(ni._unacked)
            for ni in network.interfaces
        )
        if pending != self.engine_pending:
            raise AssertionError(
                f"engine_pending drift: counter={self.engine_pending}"
                f" actual={pending}"
            )
        # Step registry may be a superset (spurious for one cycle), never
        # a subset: missing a component with work would stall the sim.
        # A backlogged NI only *needs* registration while some injection
        # VC with queued flits has router buffer space -- a fully blocked
        # backlog parks until the router's space-freed wake-up.
        needy = set()
        for ni in network.interfaces:
            if ni.engine is not None and ni.engine.needs_cycle():
                needy.add(ni.node)
            elif any(
                queue and ni.router.injection_space(vc) > 0
                for vc, queue in enumerate(ni._queues)
            ):
                needy.add(ni.node)
        missing = needy - self.active_nis
        if missing:
            raise AssertionError(f"NIs with work not registered: {sorted(missing)}")
