"""Static extended channel-dependency-graph analysis (Theorems 1 and 2).

The paper's deadlock-freedom argument has two legs:

1. **Resource separation** -- wave switches S1..Sk, the S0 wormhole
   plane and the control-flit paths use disjoint channel resources, and
   every circuit-plane resource is released in bounded time (probes
   backtrack, victims are torn down, phase 3 abandons the plane
   entirely), so the only place a circular wait can live is inside S0.

2. **S0 acyclicity** -- the wormhole routing function underneath has an
   acyclic (extended) channel-dependency graph: Dally & Seitz dimension
   order on meshes and hypercubes, dateline VC classes on tori, and
   Duato-style adaptive routing whose *escape* subfunction is acyclic.

This module checks both legs **statically**, from topology + routing +
protocol configuration alone, with no simulation.  One walker,
:func:`walk_dependencies`, covers every (src, dst) *endpoint* pair's
routes exactly as the runtime router would (the class/dateline
discipline is queried from the routing object itself, and
:func:`runtime_replay_check` replays the live router against it) and
builds a dependency graph over ``(node, port, vc_class)`` vertices.
Both visit each state once per destination, however many sources
reach it.  *Which* graph is decided by the
routing subfunction handed to it: the designated discipline
(:class:`EscapeSubfunction` -- the plain CDG of a deterministic routing
function, the *extended* escape CDG of an adaptive one, with escape
dependencies chained across adaptive hops as Duato's theorem requires),
the full relation's union graph (:class:`FullRelation`) or another
valid subrelation (:class:`RingSplitSubfunction`).  The proof ladder
over these graphs is :mod:`repro.verify.smt`.

``assume_classes=1`` deliberately analyses a torus while ignoring its
dateline discipline -- the classic cyclic configuration -- which is how
the tests (and CI) prove the analyzer actually finds cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import ConfigError
from repro.topology import build_topology
from repro.topology.base import CartesianTopology, Topology
from repro.wormhole.routing import (
    AdaptiveRouting,
    RoutingFunction,
    make_routing,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.config import NetworkConfig


class Channel(NamedTuple):
    """One CDG vertex: a directed link on one virtual-channel class.

    A tuple so that hashing and equality -- most of what the walker and
    the deciders do with channels -- run at C speed.
    """

    node: int
    port: int
    vc_class: int

    def describe(self, topology: Topology) -> str:
        nbr = topology.neighbor(self.node, self.port)
        to = topology.node_label(nbr) if nbr is not None else "?"
        return (
            f"{topology.node_label(self.node)}"
            f"--{topology.port_label(self.port)}/c{self.vc_class}-->{to}"
        )


@dataclass
class SeparationCheck:
    """One line of the resource-separation checklist."""

    name: str
    passed: bool
    detail: str


@dataclass
class CDGReport:
    """Result of a static analysis run."""

    num_channels: int
    num_deps: int
    cycle: list[Channel] = field(default_factory=list)
    checks: list[SeparationCheck] = field(default_factory=list)

    @property
    def acyclic(self) -> bool:
        return not self.cycle

    @property
    def ok(self) -> bool:
        return self.acyclic and all(c.passed for c in self.checks)

    def cycle_chain(self, topology: Topology) -> str:
        """Human-readable offending channel chain."""
        return " -> ".join(ch.describe(topology) for ch in self.cycle)


# -- routing subfunctions (Duato's valid subrelations) --------------------
#
# A subfunction tells the walker which channels a header may *wait on* at
# a state -- ``options(node, dst, bits) -> ((port, vc_class), ...)`` --
# and whether the full relation's minimal adaptive hops ride along
# without extending the dependency chain (``free_hops``).


def adaptive_class(num_classes: int) -> int:
    """Pseudo-class id labelling the adaptive VC pool.

    Escape channels carry classes ``0..num_classes-1``; all adaptive VCs
    are symmetric, so one extra class id suffices -- a cycle exists among
    the adaptive channels iff it exists with a single representative.
    """
    return num_classes


class EscapeSubfunction:
    """The designated discipline: dimension order on the escape classes.

    For a deterministic routing function this *is* the routing function
    and the walk yields its plain CDG.  Under adaptive routing a worm may
    take adaptive channels freely and fall through to the escape channel
    at any hop, so the walk yields the *extended* escape CDG.
    """

    name = "escape-dor"

    def __init__(self, routing: RoutingFunction, num_classes: int) -> None:
        self.routing = routing
        self.num_classes = num_classes
        self.free_hops = isinstance(routing, AdaptiveRouting)

    def options(
        self, node: int, dst: int, bits: int
    ) -> tuple[tuple[int, int], ...]:
        port = self.routing.topology.dor_port(node, dst)
        cls = self.routing.hop_class(
            node, port, bits, num_classes=self.num_classes
        )
        return ((port, cls),)


class FullRelation:
    """Every channel an adaptive header may wait on: the union graph.

    With no free hops the walk accumulates *every* direct dependency any
    route may create -- the single graph a plain loop search (SNIPPETS
    snippet 3, method ``-b``; Stramaglia et al.'s satisfiability phrasing
    of the same object) operates on.  It is cyclic for every interesting
    adaptive config (all turns are permitted), which is exactly the
    over-approximation the escape/subrelation rungs resolve.
    """

    name = "union"
    free_hops = False

    def __init__(self, routing: RoutingFunction, num_classes: int) -> None:
        self.escape = EscapeSubfunction(routing, num_classes)
        self.topology = routing.topology
        self.cls = adaptive_class(num_classes)

    def options(
        self, node: int, dst: int, bits: int
    ) -> tuple[tuple[int, int], ...]:
        return self.escape.options(node, dst, bits) + tuple(
            (port, self.cls)
            for port in self.topology.minimal_ports(node, dst)
        )


class RingSplitSubfunction:
    """Dimension order with per-ring direction choice, over adaptive VCs.

    On a wrapped (torus) dimension whose two minimal directions tie, the
    escape DOR rule always takes the plus port -- chaining plus links all
    the way around the ring, which is the classic cycle when no dateline
    classes are available.  This subfunction breaks the tie by *source
    parity* instead: even coordinates go plus, odd go minus, so neither
    direction's links ever chain around a full ring.  Non-tied hops take
    the strictly-minimal direction (which can never chain a ring either:
    a route crosses at most half the ring).  All options are served from
    the adaptive VC pool, so the subfunction is a subrelation of the full
    adaptive routing relation whatever the escape class discipline says.

    Duato's theorem then applies: if this subfunction is connected and
    its extended dependency graph (chained across *all* adaptive hops of
    the full relation) is acyclic, the routing function is deadlock-free
    -- even when every single-graph cycle search over the union or the
    escape discipline reports a cycle.
    """

    name = "ring-split-dor"
    free_hops = True

    def __init__(self, routing: RoutingFunction, num_classes: int) -> None:
        # Cartesian with a wrapped dimension: see candidate_subfunctions.
        self.topology = routing.topology
        self.cls = adaptive_class(num_classes)

    def options(
        self, node: int, dst: int, bits: int
    ) -> tuple[tuple[int, int], ...]:
        topo = self.topology
        port = topo.dor_port(node, dst)  # shortest way; ties go plus
        dim = topo.port_dimension(port)
        c, radix = topo.coords(node)[dim], topo.dims[dim]
        tied = topo._wraps(dim) and (
            2 * ((topo.coords(dst)[dim] - c) % radix) == radix
        )
        if tied and c % 2:  # split the ring by source parity
            port += 1
        return ((port, self.cls),)


def candidate_subfunctions(
    routing: RoutingFunction, num_classes: int
) -> list:
    """The subrelation family, designated discipline first."""
    candidates: list = [EscapeSubfunction(routing, num_classes)]
    topology = routing.topology
    if isinstance(routing, AdaptiveRouting) and isinstance(
        topology, CartesianTopology
    ):
        if any(topology._wraps(d) for d in range(topology.n_dims)):
            candidates.append(RingSplitSubfunction(routing, num_classes))
    return candidates


def subfunction_by_name(
    name: str, routing: RoutingFunction, num_classes: int
):
    """Resolve a certificate's graph name: a family member or the union."""
    known = candidate_subfunctions(routing, num_classes)
    if isinstance(routing, AdaptiveRouting):
        known.append(FullRelation(routing, num_classes))
    for sub in known:
        if sub.name == name:
            return sub
    raise ConfigError(
        f"unknown subfunction {name!r} for {routing.topology!r}"
    )


# -- graph construction --------------------------------------------------

Edges = dict[Channel, set[Channel]]


def walk_dependencies(routing: RoutingFunction, sub) -> tuple[Edges, bool]:
    """Dependency graph of a subfunction w.r.t. the full relation.

    The one route walker.  At every state the header may take a
    subfunction channel, chaining it to the previously-held one -- the
    worm's body holds its whole path, so a later channel depends on
    every earlier one and transitivity is carried by the *last*
    subfunction channel -- or, when the subfunction has free hops, any
    minimal adaptive hop with the chain unchanged.  That is the
    conservative superset of Duato's indirect-dependency closure, so an
    acyclic result is always sound.  States are memoised on
    ``(node, dateline bits, last channel)`` per destination, across all
    sources: everything expanded from a state is a pure function of it
    and the destination (``options``, ``hop_bits``, ``minimal_ports``,
    ``neighbor``), so a state reached again from another source adds no
    edge, vertex or dead end the first expansion did not.  Only the chain
    depends on ``last``: the rest of an expansion (option channels,
    successors, free hops, dead ends) is computed once per ``(node,
    bits)`` and destination, for every ``last`` it is reached with.

    Returns the graph and whether the subfunction is *connected*: every
    state the full relation reaches offers an option and every option
    leads to a neighbour, so any endpoint pair is routable on the
    subfunction alone from wherever the adaptive hops left the header.
    """
    topology = routing.topology
    neighbor, hop_bits = topology.neighbor, routing.hop_bits
    options_at, free_hops = sub.options, sub.free_hops
    edges: Edges = {}
    connected = True
    # Only endpoint pairs route messages; on topologies with dedicated
    # switching elements (MINs) the switches never source or sink worms,
    # and including them would add dependencies no run can create.
    for dst in topology.endpoints():
        seen: set[tuple[int, int, Channel | None]] = set()
        # (node, bits) -> (option channels, their successor states, free hops)
        expansions: dict[tuple[int, int], tuple[list, list, list]] = {}
        for src in topology.endpoints():
            if src == dst:
                continue
            stack: list[tuple[int, int, Channel | None]] = [(src, 0, None)]
            while stack:
                state = stack.pop()
                node, bits, last = state
                if node == dst or state in seen:
                    continue
                seen.add(state)
                if (node, bits) not in expansions:
                    chans, taken, free = expansions[node, bits] = [], [], []
                    options = options_at(node, dst, bits)
                    if not options:
                        connected = False  # dead end short of the destination
                    for port, cls in options:
                        chan = Channel(node, port, cls)
                        edges.setdefault(chan, set())
                        chans.append(chan)
                        nbr = neighbor(node, port)
                        if nbr is None:
                            connected = False
                            continue
                        taken.append((nbr, hop_bits(node, port, bits), chan))
                    if free_hops:
                        for port in topology.minimal_ports(node, dst):
                            nbr = neighbor(node, port)
                            if nbr is not None:
                                free.append((nbr, hop_bits(node, port, bits)))
                chans, taken, free = expansions[node, bits]
                if last is not None:
                    out = edges[last]
                    for chan in chans:
                        if chan != last:
                            out.add(chan)
                stack += taken
                for nbr, nbits in free:
                    stack.append((nbr, nbits, last))
    return edges, connected


def analysed_classes(
    routing: RoutingFunction, assume_classes: int | None
) -> int:
    """The VC-class count an analysis uses, validating the override.

    ``assume_classes`` overrides the routing function's own count (e.g.
    ``1`` on a torus ignores the dateline discipline -- the
    deliberately-cyclic configuration used to validate the analyzer).
    """
    if assume_classes is None:
        return routing.num_classes
    if assume_classes < 1:
        raise ConfigError(f"assume_classes must be >= 1, got {assume_classes}")
    if assume_classes > routing.num_classes:
        # The class discipline is pinned by the topology: fullmesh and the
        # unidirectional MIN (and mesh/hypercube) define exactly one VC
        # class, a torus exactly two.  hop_class() can never emit a class
        # the discipline does not define, so analysing with *more* classes
        # than the topology pins would silently produce the same graph
        # relabelled -- reject instead of composing wrongly.
        raise ConfigError(
            f"assume_classes={assume_classes} exceeds the "
            f"{routing.num_classes} VC class(es) {routing.topology!r} "
            "pins; only reducing the class count (e.g. 1 to ignore "
            "torus datelines) is a meaningful override"
        )
    return assume_classes


def build_cdg(
    topology: Topology,
    routing,
    *,
    assume_classes: int | None = None,
) -> Edges:
    """The designated (extended) CDG of a routing function."""
    num_classes = analysed_classes(routing, assume_classes)
    return walk_dependencies(
        routing, EscapeSubfunction(routing, num_classes)
    )[0]


def find_cycle(edges: Edges) -> list[Channel]:
    """Return one dependency cycle as a closed channel chain, or [].

    Depth-first from the smallest channel, successors in channel order,
    so the witness is deterministic for a given graph.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(edges, WHITE)
    for start in sorted(edges):
        if color[start] != WHITE:
            continue
        color[start] = GREY
        path = [start]  # the grey chain; pending[i] iterates path[i]'s outs
        pending = [iter(sorted(edges[start]))]
        while pending:
            for nxt in pending[-1]:
                if color[nxt] == GREY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    pending.append(iter(sorted(edges[nxt])))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return []


# -- the full protocol-level check ---------------------------------------


@dataclass
class DesignatedGraph:
    """A config's designated dependency graph, built once for both legs."""

    config: "NetworkConfig"
    assume_classes: int | None
    topology: Topology
    routing: RoutingFunction
    num_classes: int
    edges: Edges
    connected: bool


def config_topology(config: "NetworkConfig") -> Topology:
    return build_topology(config.topology, config.dims)


def designated_graph(
    config: "NetworkConfig", assume_classes: int | None = None
) -> DesignatedGraph:
    """Walk the designated discipline of one network configuration."""
    topology = config_topology(config)
    routing = make_routing(
        config.wormhole.routing, topology, config.wormhole.vcs
    )
    num_classes = analysed_classes(routing, assume_classes)
    edges, connected = walk_dependencies(
        routing, EscapeSubfunction(routing, num_classes)
    )
    return DesignatedGraph(
        config, assume_classes, topology, routing, num_classes,
        edges, connected,
    )


def separation_leg(graph: DesignatedGraph) -> list[SeparationCheck]:
    """The resource-separation leg of Theorems 1-2 for one configuration."""
    config, routing = graph.config, graph.routing
    checks: list[SeparationCheck] = []
    wave = config.wave
    if wave is not None:
        checks.append(SeparationCheck(
            "plane_disjointness", True,
            f"{wave.num_switches} wave switch(es) + S0 own disjoint "
            "physical channel sets; probes, circuits and worms never "
            "contend for the same channel",
        ))
        checks.append(SeparationCheck(
            "bounded_probe_work", wave.misroute_budget >= 0,
            f"MB-{wave.misroute_budget} probes release every reserved "
            "channel on backtrack and do bounded work (Theorem 3)",
        ))
        checks.append(SeparationCheck(
            "escape_to_s0", True,
            "CLRP phase 3 / CARP fallback abandon the circuit planes for "
            "S0, so circuit-plane waits never become permanent",
        ))
    checks.append(SeparationCheck(
        "control_flits_sunk", True,
        "acks, releases and teardowns are consumed at network interfaces "
        "and never wait on wormhole credits",
    ))
    if graph.topology.num_vc_classes > 1:
        need = routing.num_classes
        checks.append(SeparationCheck(
            "dateline_vcs", config.wormhole.vcs >= need,
            f"dateline discipline needs >= {need} VCs "
            f"(configured: {config.wormhole.vcs})",
        ))
    if graph.assume_classes is None:
        # Replay only when the analysis models the runtime discipline
        # verbatim; under a counterfactual class count the runtime would
        # legitimately use channels the analysed graph omits.
        checks.append(
            runtime_replay_check(graph.topology, routing, graph.edges)
        )
    return checks


def runtime_replay_check(
    topology: Topology, routing: RoutingFunction, edges: Edges
) -> SeparationCheck:
    """Replay real routes through the runtime router against the CDG.

    The analyzer walks routes via :meth:`hop_class`/:meth:`hop_bits`; the
    runtime router goes through :meth:`candidates`/:meth:`note_hop` with a
    live header flit.  The two code paths share the dateline discipline by
    construction, but "cannot drift" is worth a machine check: every
    channel the runtime would occupy along a route must be a vertex of
    the analyzer's graph with the same VC class.  For adaptive routing
    the escape tier is replayed (the adaptive tier has no per-VC class
    discipline to drift).  Any missing channel fails the config, which
    turns ``repro verify-cdg --all`` red instead of green-washing an
    analyzer/runtime divergence.

    Each ``(node, dateline bits)`` state is replayed once per
    destination: ``candidates()`` and ``note_hop()`` read nothing else
    of the header, so the rest of a route is a pure function of that
    state and ``dst``.  A route stops at the first state already
    replayed (a suffix checked clean) and adds its channel uses, so the
    first failing route, the channel it names and the count reported
    (every use on every route) are those of replaying routes in full.
    """
    from repro.wormhole.flit import Flit

    vertices = set(edges).union(*edges.values())
    num_classes = routing.num_classes
    endpoints = topology.endpoints()
    # Per destination: (node, bits) -> channel uses from there to dst.
    suffixes: dict[int, dict] = {dst: {} for dst in endpoints}
    replayed = 0
    for src in endpoints:
        for dst in endpoints:
            if src == dst:
                continue
            memo = suffixes[dst]
            head = Flit(0, 0, is_head=True, is_tail=True, dst=dst)
            node, walked, uses = src, [], 0
            while node != dst:
                state = (node, head.dateline_bits)
                if state in memo:
                    uses = memo[state]
                    break
                tiers = routing.candidates(node, dst, head)
                escape_tier = tiers[-1]  # DOR: only tier; adaptive: escape
                here = 0
                for port, vcs in escape_tier:
                    for vc in vcs:
                        chan = Channel(node, port, vc % num_classes)
                        if chan not in vertices:
                            return SeparationCheck(
                                "runtime_replay", False,
                                f"runtime channel "
                                f"{chan.describe(topology)} (route "
                                f"{src}->{dst}) missing from the CDG: "
                                "analyzer and router drifted",
                            )
                        here += 1
                walked.append((state, here))
                # Advance along the escape path exactly as a worm
                # committed to it would, updating the header history.
                port, _vcs = escape_tier[0]
                routing.note_hop(node, port, head)
                nxt = topology.neighbor(node, port)
                assert nxt is not None
                node = nxt
            for state, here in reversed(walked):  # back-fill the suffixes
                uses += here
                memo[state] = uses
            replayed += uses
    return SeparationCheck(
        "runtime_replay", True,
        f"{replayed} runtime channel uses replayed through "
        "candidates()/note_hop() all match the analyzer's graph",
    )


def analyze_config(
    config: "NetworkConfig", *, assume_classes: int | None = None
) -> CDGReport:
    """The separation leg plus the designated graph and its cycle, if any.

    The proof ladder over the same graph is
    :func:`repro.verify.smt.verify_config`.
    """
    graph = designated_graph(config, assume_classes)
    return CDGReport(
        num_channels=len(graph.edges),
        num_deps=sum(len(v) for v in graph.edges.values()),
        cycle=find_cycle(graph.edges),
        checks=separation_leg(graph),
    )
