"""The per-destination walker against the per-pair walker it replaced.

:func:`walk_dependencies` memoises states per destination across all
sources, and expands each ``(node, dateline bits)`` once per
destination: states that differ only in the channel they hold reuse
that expansion's option channels, successor states and free hops.  The
oracle below is the walker as it stood at 7603759, with one ``seen``
set per (src, dst) pair and every state expanded afresh, kept in this
file only.  On every registered topology at small dims, with both
routing functions, every subfunction the prover builds (plus two stubs
that break connectivity in each of the two ways the walker detects)
must yield the same edge set and the same connectivity verdict.  A
torus under its own dateline discipline reaches one node with
different bits for one destination, so an expansion keyed on the node
alone picks the wrong VC class there; the first example pins that.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.topology import build_topology, registered_topologies
from repro.verify.cdg import (
    Channel,
    Edges,
    EscapeSubfunction,
    FullRelation,
    analysed_classes,
    candidate_subfunctions,
    walk_dependencies,
)
from repro.wormhole.routing import RoutingFunction, make_routing


def oracle_walk_dependencies(
    routing: RoutingFunction, sub
) -> tuple[Edges, bool]:
    """``walk_dependencies`` as it stood at 7603759: memo per pair."""
    topology = routing.topology
    neighbor, hop_bits = topology.neighbor, routing.hop_bits
    options_at, free_hops = sub.options, sub.free_hops
    edges: Edges = {}
    connected = True
    # Only endpoint pairs route messages; on topologies with dedicated
    # switching elements (MINs) the switches never source or sink worms,
    # and including them would add dependencies no run can create.
    for src in topology.endpoints():
        for dst in topology.endpoints():
            if src == dst:
                continue
            seen: set[tuple[int, int, Channel | None]] = set()
            stack: list[tuple[int, int, Channel | None]] = [(src, 0, None)]
            while stack:
                state = stack.pop()
                node, bits, last = state
                if node == dst or state in seen:
                    continue
                seen.add(state)
                options = options_at(node, dst, bits)
                if not options:
                    connected = False  # dead end short of the destination
                for port, cls in options:
                    chan = Channel(node, port, cls)
                    edges.setdefault(chan, set())
                    if last is not None and last != chan:
                        edges[last].add(chan)
                    nbr = neighbor(node, port)
                    if nbr is None:
                        connected = False
                        continue
                    stack.append((nbr, hop_bits(node, port, bits), chan))
                if free_hops:
                    for port in topology.minimal_ports(node, dst):
                        nbr = neighbor(node, port)
                        if nbr is not None:
                            stack.append(
                                (nbr, hop_bits(node, port, bits), last)
                            )
    return edges, connected


class DeadEnds(EscapeSubfunction):
    """The escape discipline with no option at all at some states."""

    name = "stub-dead-ends"

    def options(self, node, dst, bits):
        if (node + dst) % 3 == 0:
            return ()
        return super().options(node, dst, bits)


class OffTheEdge(EscapeSubfunction):
    """The escape discipline plus every unwired port at the node."""

    name = "stub-off-the-edge"

    def options(self, node, dst, bits):
        topo = self.routing.topology
        return super().options(node, dst, bits) + tuple(
            (port, 0) for port in range(topo.num_ports)
            if topo.neighbor(node, port) is None
        )


# Small shapes per registered name; every registered name must appear.
SHAPES = {
    "mesh": st.lists(st.integers(2, 4), min_size=1, max_size=2),
    "torus": st.lists(st.integers(2, 4), min_size=1, max_size=2),
    "hypercube": st.integers(1, 4).map(lambda n: [2] * n),
    "fullmesh": st.integers(2, 6).map(lambda n: [n]),
    "min": st.sampled_from([[2], [2, 2], [2, 2, 2], [3, 3]]),
}


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(SHAPES)))
    dims = tuple(draw(SHAPES[name]))
    routing = draw(st.sampled_from(["dor", "adaptive"]))
    extra_vcs = draw(st.integers(0, 1))
    assume_classes = draw(st.sampled_from([None, 1]))
    return name, dims, routing, extra_vcs, assume_classes


def subfunctions(case):
    name, dims, routing_name, extra_vcs, assume_classes = case
    topology = build_topology(name, dims)
    min_vcs = topology.num_vc_classes + (routing_name == "adaptive")
    routing = make_routing(routing_name, topology, min_vcs + extra_vcs)
    num_classes = analysed_classes(routing, assume_classes)
    return routing, candidate_subfunctions(routing, num_classes) + [
        FullRelation(routing, num_classes),
        DeadEnds(routing, num_classes),
        OffTheEdge(routing, num_classes),
    ]


def test_every_registered_topology_is_generated():
    assert set(SHAPES) == set(registered_topologies())


@settings(max_examples=80, deadline=None)
@given(cases())
@example(("torus", (4, 4), "dor", 0, None))
@example(("mesh", (3, 3), "adaptive", 0, None))
@example(("torus", (4, 3), "adaptive", 1, 1))
@example(("min", (2, 2, 2), "dor", 0, None))
def test_walker_matches_per_pair_oracle(case):
    routing, subs = subfunctions(case)
    for sub in subs:
        edges, connected = walk_dependencies(routing, sub)
        want_edges, want_connected = oracle_walk_dependencies(routing, sub)
        assert edges.keys() == want_edges.keys(), sub.name
        assert edges == want_edges, sub.name
        assert connected == want_connected, sub.name


def test_stubs_break_connectivity_both_ways():
    """Each stub reaches its own ``connected = False`` branch."""
    routing, subs = subfunctions(("mesh", (3, 3), "adaptive", 0, None))
    verdicts = {sub.name: walk_dependencies(routing, sub)[1] for sub in subs}
    assert verdicts == {
        "escape-dor": True, "union": True,
        "stub-dead-ends": False, "stub-off-the-edge": False,
    }
