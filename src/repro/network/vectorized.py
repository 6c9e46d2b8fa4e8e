"""Struct-of-arrays stepping core for the wormhole data path.

This is the production core: ``Network.step`` runs it on the default
``active`` backend (``vectorized`` is another name for it).  The
per-object router phases (``WormholeRouter.route_phase`` /
``traversal_phase``) survive only as the executable spec that
``Network.step_reference`` drives; moving flits through them pays
object-graph prices: attribute chains, ``InputVC``/``OutputVC`` method
calls, a ``stats.bump`` dict update per event, and a fresh
``routing.candidates`` computation per blocked header per cycle.  At
saturation that is the entire bill.

:class:`VectorizedCore` flattens the per-channel scalar state of every
router into arrays indexed by a global virtual-channel number and
advances one cycle of the whole wormhole subsystem per :meth:`step`
call.  The layout splits state in two:

* **Shared by reference** -- flit deques, the per-router ``_active``
  sets, the round-robin dicts, ``link_flits`` and the activity
  registries are the *same objects* the routers own.  Mutating them
  through the core preserves both the observable state and -- crucially
  for bit-identity -- the *iteration order* of the ``_active`` sets,
  which the arbitration and routing loops inherit.
* **Core-owned scalars** -- per-input-VC route/msg, per-output-VC
  credits/owner, ejection-channel owners and the VC-allocation rotation
  live in flat lists while the core is attached, and are written back to
  the router objects on :meth:`detach` (full hand-back, e.g. around
  fault reactions) or :meth:`materialize` (read-only refresh for
  introspection: deadlock detector, invariant harness, tests).

The bit-identity contract (``work_counter``, delivered records, stats
counters) against ``Network.step_reference`` is enforced by
``tests/integration/test_cycle_exact.py`` over every protocol/topology
combination, with fault schedules and the reliability layer enabled,
plus the ``tests/corpus/`` fuzz reproducers, and on every generated
scenario by the fuzzer's differential oracle
(``repro.orchestrate.runner.execute_job``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ProtocolError
from repro.sim.events import EventKind
from repro.wormhole.flit import DROP_PORT, EJECT_PORT

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network

# Sentinel for "no route" in the flat route arrays; distinct from every
# real port index and from the EJECT/INJECT/DROP sentinels (-1/-2/-3).
UNROUTED = -10

# Stats counters tallied in locals and bumped once per step, in this
# order.
_COUNTERS = (
    "wormhole.headers_routed",
    "wormhole.va_stall",
    "wormhole.eject_vc_stall",
    "wormhole.credit_stall",
    "wormhole.flits_moved",
    "wormhole.flits_ejected",
    "wormhole.flits_dropped",
    "wormhole.worms_poisoned",
)


class VectorizedCore:
    """Flat-array wormhole stepping over a :class:`Network`'s routers."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        routers = network.routers
        topo = network.topology
        cfg = network.config.wormhole
        self.N = N = topo.num_nodes
        self.P = P = topo.num_ports
        self.W = W = cfg.vcs
        self.PI = PI = P + 1  # physical input ports + injection port
        self.M = PI * W  # round-robin modulus, as in the router objects
        self.delay = cfg.router_delay
        self.max_credits = cfg.buffer_depth
        self.routing = routers[0].routing
        self.faults = network.faults
        self.stats = network.stats
        self.drop_sink = routers[0].drop_sink
        self.active_routers = network.activity.active_routers
        self.active_nis = network.activity.active_nis
        self.base_in = [n * PI * W for n in range(N)]
        self.base_out = [n * P * W for n in range(N)]

        n_ivc = N * PI * W
        n_ovc = N * P * W
        # The channel objects in flat-index order (row-major per router,
        # which is exactly the global numbering), and each input VC's
        # router-local (port, vc) key: the sync loops walk these.
        self.ivcs = [ivc for r in routers for row in r.inputs for ivc in row]
        self.ovcs = [out for r in routers for row in r.outputs for out in row]
        self.ivc_key = [(ivc.port, ivc.vc) for ivc in self.ivcs]
        # Shared-by-reference views (refreshed on attach).
        self.buf: list = [None] * n_ivc
        self.act: list = [r._active for r in routers]
        self.rr: list = [r._rr for r in routers]
        self.link_flits: list = [r.link_flits for r in routers]
        self.deliver: list = [r.deliver for r in routers]
        self.logs: list = [r.log for r in routers]
        # Core-owned scalars (synced on attach/detach/materialize).
        self.route_port = [UNROUTED] * n_ivc
        self.route_vc = [0] * n_ivc
        # Absolute output-VC index of the route when it targets a
        # physical port (-1 otherwise): saves recomputing
        # ``base_out + port*W + vc`` on every credit check and move.
        self.route_ovc = [-1] * n_ivc
        self.msg = [-1] * n_ivc
        self.credits = [0] * n_ovc
        self.owner = [-1] * n_ovc  # owning ivc index, -1 when free
        self.eject_owner = [-1] * (N * W)
        self.va_rr = [0] * N
        # Static wiring, derived once from the router graph.
        self.up_ovc = [-1] * n_ivc
        self.down_ivc = [-1] * n_ovc
        self.down_node = [-1] * n_ovc
        self.down_key: list = [None] * n_ovc
        self.connected = [False] * (N * P)
        for node, router in enumerate(routers):
            for port in range(P):
                down = router.downstream[port]
                if down is None:
                    continue
                self.connected[node * P + port] = True
                nbr, their_port = down
                for vc in range(W):
                    o = self.base_out[node] + port * W + vc
                    self.down_ivc[o] = self.base_in[nbr.node] + their_port * W + vc
                    self.down_node[o] = nbr.node
                    self.down_key[o] = (their_port, vc)
                    # The downstream input VC credits this output VC.
                    self.up_ovc[self.down_ivc[o]] = o
        # Routing tiers cached per input VC while the same (header flit,
        # dateline bits) pair sits parked at the buffer head; candidates()
        # is pure in those inputs, so a blocked header stops recomputing
        # its options every cycle.
        self.tiers_cache: list = [None] * n_ivc
        # VA-blocked headers skip the allocator scan entirely.  Within an
        # attached epoch the fault set is frozen (fault events detach the
        # core first), so a stalled header's eligible output VCs are a
        # fixed set and the stall can only end when one of them frees --
        # which happens solely on a tail departure.  ``blocked[i]`` is 0
        # (scan), 1 (va-stalled) or 2 (eject-stalled); ``watch[o]`` /
        # ``eject_watch[node]`` list the input VCs to wake when owner
        # ``o`` / any ejection channel of ``node`` clears.  Spurious
        # wakes (stale entries) just trigger one re-scan and re-park.
        self.blocked = [0] * n_ivc
        self.watch: list = [[] for _ in range(n_ovc)]
        self.eject_watch: list = [[] for _ in range(N)]
        # Credit-stalled worms skip the head-flit/credit re-check in the
        # traversal gather: a worm routed to output VC ``o`` with zero
        # credits stays unmovable until ``credits[o]`` goes 0 -> 1, and
        # ``owner[o]`` already names the one input VC to wake then.
        self.cstalled = [False] * n_ivc
        self.attached = False
        # True while the router objects hold what the arrays hold.
        self.synced = False

    # -- attach / detach -------------------------------------------------

    def attach(self) -> None:
        """Copy router-object scalar state into the flat arrays."""
        W = self.W
        PIW = self.PI * W
        PW = self.P * W
        base_in = self.base_in
        buf, msg = self.buf, self.msg
        route_port, route_vc, route_ovc = (
            self.route_port, self.route_vc, self.route_ovc
        )
        for i, ivc in enumerate(self.ivcs):
            buf[i] = ivc.buffer
            route = ivc.route
            if route is None:
                route_port[i] = UNROUTED
                route_ovc[i] = -1
                msg[i] = -1
            else:
                rp, rv = route
                route_port[i] = rp
                route_vc[i] = rv
                route_ovc[i] = (i // PIW) * PW + rp * W + rv if rp >= 0 else -1
                msg[i] = ivc.msg
        credits, owner = self.credits, self.owner
        for o, out in enumerate(self.ovcs):
            credits[o] = out.credits
            own = out.owner
            owner[o] = (
                -1 if own is None else base_in[o // PW] + own[0] * W + own[1]
            )
        for node, router in enumerate(self.network.routers):
            bi = base_in[node]
            for ev, key in enumerate(router.eject_owner):
                self.eject_owner[node * W + ev] = (
                    -1 if key is None else bi + key[0] * W + key[1]
                )
            self.va_rr[node] = router._va_rr
            self.logs[node] = router.log
        # Fault state may have changed while detached: drop every stall
        # flag and watcher so each parked header re-scans once.
        self.blocked = [0] * len(self.blocked)
        self.cstalled = [False] * len(self.cstalled)
        for w in self.watch:
            w.clear()
        for w in self.eject_watch:
            w.clear()
        self.attached = True
        self.synced = True

    def materialize(self) -> None:
        """Write the arrays back into the router objects, staying
        attached (the arrays remain authoritative).  A no-op when no
        :meth:`step` ran since the last sync, so several readers on one
        cycle pay for one write-back."""
        if self.synced:
            return
        self.synced = True
        W = self.W
        keys = self.ivc_key
        for ivc, rp, rv, m in zip(
            self.ivcs, self.route_port, self.route_vc, self.msg
        ):
            if rp == UNROUTED:
                ivc.route = None
                ivc.msg = None
            else:
                ivc.route = (rp, rv)
                ivc.msg = m
        for out, c, own in zip(self.ovcs, self.credits, self.owner):
            out.credits = c
            out.owner = None if own < 0 else keys[own]
        eject_owner = self.eject_owner
        for node, router in enumerate(self.network.routers):
            eb = node * W
            router.eject_owner[:] = [
                None if own < 0 else keys[own]
                for own in eject_owner[eb:eb + W]
            ]
            router._va_rr = self.va_rr[node]

    def detach(self) -> None:
        """Hand state back to the router objects (fault reactions, event
        log rewiring); a later :meth:`attach` re-syncs."""
        self.materialize()
        self.attached = False

    # -- one cycle -------------------------------------------------------

    def step(self, cycle: int, order: list[int]) -> int:
        """Route + traverse every router in ``order`` (sorted node ids);
        returns flits moved (the network's work signal).

        Both phases are inlined into this one function on purpose: it
        runs once per cycle, so every ``self`` attribute the per-key
        loops need is hoisted into a local exactly once instead of once
        per router (the route/traverse bodies execute a few million
        times per simulated second at saturation).

        Iterating the live ``_active`` sets is safe in both loops: the
        route phase neither en/de-queues flits nor touches the sets (the
        drop sink only records the loss centrally), and the traversal
        gather does not mutate them either -- removals happen in the
        arbitration loop after the gather is complete.  The iteration
        order is exactly the reference router phases'.
        """
        self.synced = False
        work = 0
        W = self.W
        P = self.P
        M = self.M
        delay = self.delay
        base_in = self.base_in
        base_out = self.base_out
        acts = self.act
        buf = self.buf
        route_port = self.route_port
        route_vc = self.route_vc
        route_ovc = self.route_ovc
        msg = self.msg
        owner = self.owner
        credits = self.credits
        eject_owner = self.eject_owner
        va_rr = self.va_rr
        blocked = self.blocked
        cstalled = self.cstalled
        watch = self.watch
        eject_watch = self.eject_watch
        tiers_cache = self.tiers_cache
        faults = self.faults
        connected = self.connected
        candidates = self.routing.candidates
        note_hop = self.routing.note_hop
        drop_sink = self.drop_sink
        up_ovc = self.up_ovc
        max_credits = self.max_credits
        down_ivc = self.down_ivc
        down_node = self.down_node
        down_key = self.down_key
        active_routers = self.active_routers
        active_nis = self.active_nis
        rrs = self.rr
        delivers = self.deliver
        links = self.link_flits
        logs = self.logs
        EJ = EJECT_PORT
        c_routed = c_va = c_ej_stall = c_cred = 0
        c_moved = c_ejected = c_dropped = c_poisoned = 0
        try:
            # -- RC/VA over every active router ------------------------
            for node in order:
                bi = base_in[node]
                bo = base_out[node]
                cp = node * P
                for key in acts[node]:
                    i = bi + key[0] * W + key[1]
                    if route_port[i] != UNROUTED:
                        continue
                    bl = blocked[i]
                    if bl:
                        # Parked on a full allocator: the header's
                        # eligibility checks all passed when it parked
                        # and cannot regress, so only the stall counter
                        # advances until a wake fires.
                        if bl == 1:
                            c_va += 1
                        else:
                            c_ej_stall += 1
                        continue
                    f = buf[i][0]
                    if not f.is_head or cycle < f.arrival + delay:
                        continue
                    if f.dst == node:
                        eb = node * W
                        granted = -1
                        for ev in range(W):
                            if eject_owner[eb + ev] < 0:
                                granted = ev
                                break
                        if granted < 0:
                            c_ej_stall += 1
                            blocked[i] = 2
                            eject_watch[node].append(i)
                            continue
                        eject_owner[eb + granted] = i
                        route_port[i] = EJ
                        route_vc[i] = granted
                        msg[i] = f.msg_id
                        continue
                    cache = tiers_cache[i]
                    if (
                        cache is not None
                        and cache[0] is f
                        and cache[1] == f.dateline_bits
                    ):
                        tiers = cache[2]
                    else:
                        tiers = candidates(node, f.dst, f)
                        tiers_cache[i] = (f, f.dateline_bits, tiers)
                    # Inlined _free_output_vc: among free VCs pick most
                    # credits, ties broken by the rotating port offset.
                    choice_port = -1
                    choice_vc = 0
                    va = va_rr[node]
                    for tier in tiers:
                        n = len(tier)
                        if n == 0:
                            continue
                        start = va % n
                        best_key = -1
                        for j in range(n):
                            port, vcs = tier[(start + j) % n]
                            if faults is not None and faults.is_faulty(
                                node, port
                            ):
                                continue
                            if not connected[cp + port]:
                                continue
                            ob = bo + port * W
                            for vc in vcs:
                                o = ob + vc
                                if owner[o] < 0 and credits[o] > best_key:
                                    best_key = credits[o]
                                    choice_port = port
                                    choice_vc = vc
                        if best_key >= 0:
                            break
                    if choice_port < 0:
                        if faults is not None and self._all_routes_faulty(
                            node, tiers
                        ):
                            route_port[i] = DROP_PORT
                            route_vc[i] = 0
                            msg[i] = f.msg_id
                            c_poisoned += 1
                            if drop_sink is not None:
                                drop_sink(f.msg_id, node, cycle, "no_route")
                            continue
                        c_va += 1
                        blocked[i] = 1
                        for tier in tiers:
                            for port, vcs in tier:
                                if faults is not None and faults.is_faulty(
                                    node, port
                                ):
                                    continue
                                if not connected[cp + port]:
                                    continue
                                ob = bo + port * W
                                for vc in vcs:
                                    watch[ob + vc].append(i)
                        continue
                    o = bo + choice_port * W + choice_vc
                    owner[o] = i
                    route_port[i] = choice_port
                    route_vc[i] = choice_vc
                    route_ovc[i] = o
                    msg[i] = f.msg_id
                    va_rr[node] = va + 1
                    c_routed += 1
            # -- SA/ST/LT over every active router ---------------------
            for node in order:
                act = acts[node]
                if not act:
                    continue
                used = 0  # bitmask over granted input ports
                if faults is not None:
                    dropped, used = self._drain_poisoned(node, cycle)
                    work += dropped
                    c_dropped += dropped
                    if not act:
                        continue
                bi = base_in[node]
                requests: dict = {}
                for key in act:
                    i = bi + key[0] * W + key[1]
                    if cstalled[i]:
                        # Still waiting on a downstream credit; the wake
                        # below clears this the moment one is returned.
                        c_cred += 1
                        continue
                    rp = route_port[i]
                    if rp >= 0:
                        if buf[i][0].arrival >= cycle:
                            continue
                        if credits[route_ovc[i]] <= 0:
                            c_cred += 1
                            cstalled[i] = True
                            continue
                    elif rp != EJ:
                        continue  # UNROUTED, or DROP (drained above)
                    elif buf[i][0].arrival >= cycle:
                        continue
                    lst = requests.get(rp)
                    if lst is None:
                        requests[rp] = [(key, i)]
                    else:
                        lst.append((key, i))
                if not requests:
                    continue
                rr = rrs[node]
                log = logs[node]
                for rp, reqs in requests.items():
                    if len(reqs) == 1:
                        # Lone requester: wins outright; the rotation
                        # pointer is still advanced past it, exactly as
                        # the reference router phase does.
                        key, i = reqs[0]
                        if used >> key[0] & 1:
                            continue
                    else:
                        # Round-robin winner: nearest local VC index at
                        # or after the pointer.  Distances are unique,
                        # so no sort is needed to match min() over the
                        # reference router phase's sorted request list.
                        ptr = rr.get(rp, 0)
                        best_d = M
                        key = None
                        i = -1
                        for k, j in reqs:
                            if used >> k[0] & 1:
                                continue
                            d = j - bi - ptr
                            if d < 0:
                                d += M
                            if d < best_d:
                                best_d = d
                                key = k
                                i = j
                        if key is None:
                            continue
                    nxt = i - bi + 1
                    rr[rp] = nxt if nxt < M else 0
                    used |= 1 << key[0]
                    # -- the winner's flit moves (ST/LT, inlined) ------
                    b = buf[i]
                    f = b.popleft()
                    if not b:
                        act.discard(key)
                        if not act:
                            active_routers.discard(node)
                    up = up_ovc[i]
                    if up >= 0:
                        c = credits[up] + 1
                        if c > max_credits:
                            raise ProtocolError(
                                f"credit overflow on node {node} input "
                                f"({key[0]},{key[1]})"
                            )
                        credits[up] = c
                        if c == 1:
                            own = owner[up]
                            if own >= 0:
                                cstalled[own] = False
                    else:
                        # No upstream router: an injection-row buffer just
                        # gained a slot, so wake the local NI to pump.
                        active_nis.add(node)
                    work += 1
                    if rp == EJ:
                        delivers[node](f, cycle)
                        if f.is_tail:
                            eject_owner[node * W + route_vc[i]] = -1
                            route_port[i] = UNROUTED
                            msg[i] = -1
                            ew = eject_watch[node]
                            if ew:
                                for x in ew:
                                    blocked[x] = 0
                                ew.clear()
                        c_ejected += 1
                        continue
                    if f.is_head:
                        note_hop(node, rp, f)
                    o = route_ovc[i]
                    credits[o] -= 1
                    dnode = down_node[o]
                    dact = acts[dnode]
                    f.arrival = cycle
                    if not dact:
                        active_routers.add(dnode)
                    buf[down_ivc[o]].append(f)
                    dact.add(down_key[o])
                    links[node][rp] += 1
                    c_moved += 1
                    if log is not None and (f.is_head or f.is_tail):
                        log.emit(
                            cycle,
                            EventKind.WORM_HEAD_ADVANCE if f.is_head
                            else EventKind.WORM_TAIL_ADVANCE,
                            node, f.msg_id, port=rp, to=dnode,
                        )
                    if f.is_tail:
                        owner[o] = -1
                        route_port[i] = UNROUTED
                        msg[i] = -1
                        w = watch[o]
                        if w:
                            for x in w:
                                blocked[x] = 0
                            w.clear()
        finally:
            # On the ProtocolError path the partial tallies still reach
            # the stats.
            bump = self.stats.bump
            for name, n in zip(_COUNTERS, (
                c_routed, c_va, c_ej_stall, c_cred, c_moved, c_ejected,
                c_dropped, c_poisoned,
            )):
                if n:
                    bump(name, n)
        return work

    def _all_routes_faulty(self, node: int, tiers) -> bool:
        faults = self.faults
        assert faults is not None
        cp = node * self.P
        saw_candidate = False
        for tier in tiers:
            for port, _vcs in tier:
                if not self.connected[cp + port]:
                    continue
                saw_candidate = True
                if not faults.is_faulty(node, port):
                    return False
        return saw_candidate

    def _drain_poisoned(self, node: int, cycle: int) -> tuple[int, int]:
        """Discard one flit per poisoned worm, crediting upstream."""
        dropped = 0
        used = 0
        act = self.act[node]
        W = self.W
        bi = self.base_in[node]
        for key in list(act):
            port, vc = key
            i = bi + port * W + vc
            if self.route_port[i] != DROP_PORT:
                continue
            b = self.buf[i]
            f = b[0]
            if f.arrival >= cycle:
                continue
            b.popleft()
            if not b:
                act.discard(key)
                if not act:
                    self.active_routers.discard(node)
            up = self.up_ovc[i]
            if up >= 0:
                c = self.credits[up] + 1
                if c > self.max_credits:
                    raise ProtocolError(
                        f"credit overflow on node {node} input ({port},{vc})"
                    )
                self.credits[up] = c
                if c == 1:
                    own = self.owner[up]
                    if own >= 0:
                        self.cstalled[own] = False
            else:
                self.active_nis.add(node)
            if f.is_tail:
                self.route_port[i] = UNROUTED
                self.msg[i] = -1
            used |= 1 << port
            dropped += 1
        return dropped, used

    # -- drift validation (tests; ActivityTracker.validate-style) --------

    def validate(self, network: "Network") -> None:
        """Assert the flat arrays against per-object ground truth.

        Ground truth is recomputed from the *shared* primitives (the flit
        deques and wiring), never from the stale object scalars, so this
        can run every cycle while the core is attached.  Uses numpy for
        the whole-array credit-conservation check.
        """
        import numpy as np

        W, P = self.W, self.P
        n_ovc = self.N * P * W
        # Credit conservation: every connected output VC's credits plus
        # the downstream buffer occupancy equals the buffer depth.
        credits = np.asarray(self.credits)
        down = np.asarray(self.down_ivc)
        conn = down >= 0
        occ = np.asarray(
            [len(self.buf[d]) if d >= 0 else 0 for d in self.down_ivc]
        )
        bad = conn & (credits + occ != self.max_credits)
        if bad.any():
            o = int(np.flatnonzero(bad)[0])
            raise AssertionError(
                f"credit drift at ovc {o}: credits={self.credits[o]} "
                f"downstream occupancy={occ[o]} depth={self.max_credits}"
            )
        # Ownership bijection: owner[o] == i  <=>  i is routed to o.
        for o in range(n_ovc):
            own = self.owner[o]
            if own >= 0:
                node = o // (P * W)
                local = o - self.base_out[node]
                if (
                    self.route_port[own] != local // W
                    or self.route_vc[own] != local % W
                ):
                    raise AssertionError(
                        f"owner drift: ovc {o} claims ivc {own}, whose route "
                        f"is ({self.route_port[own]},{self.route_vc[own]})"
                    )
        for node in range(self.N):
            bi = self.base_in[node]
            bo = self.base_out[node]
            for local in range(self.PI * W):
                i = bi + local
                rp = self.route_port[i]
                if rp == UNROUTED:
                    if self.msg[i] != -1:
                        raise AssertionError(
                            f"msg set on unrouted ivc {i}: {self.msg[i]}"
                        )
                    continue
                if self.msg[i] < 0:
                    raise AssertionError(f"routed ivc {i} has no msg id")
                if rp >= 0:
                    o = bo + rp * W + self.route_vc[i]
                    if self.owner[o] != i:
                        raise AssertionError(
                            f"route drift: ivc {i} -> ovc {o} owned by "
                            f"{self.owner[o]}"
                        )
                elif rp == EJECT_PORT:
                    e = node * W + self.route_vc[i]
                    if self.eject_owner[e] != i:
                        raise AssertionError(
                            f"eject drift: ivc {i} -> channel {e} owned by "
                            f"{self.eject_owner[e]}"
                        )
                # Routed worms must carry a consistent msg id at the head.
                b = self.buf[i]
                if b and b[0].msg_id != self.msg[i] and rp != DROP_PORT:
                    raise AssertionError(
                        f"msg drift at ivc {i}: head flit {b[0].msg_id} "
                        f"vs recorded {self.msg[i]}"
                    )
            # The shared active set must mirror buffer occupancy exactly.
            expect = {
                (local // W, local % W)
                for local in range(self.PI * W)
                if self.buf[bi + local]
            }
            if expect != self.act[node]:
                raise AssertionError(
                    f"active-set drift at node {node}: "
                    f"{sorted(self.act[node])} vs {sorted(expect)}"
                )
