"""The memoised runtime replay against the per-pair replay it replaced.

:func:`runtime_replay_check` replays each ``(node, dateline bits)``
state once per destination and adds a memoised suffix's channel uses
when a later route reaches it.  The oracle below is the check as it
stood at d9562be, replaying every (src, dst) route in full, kept in
this file only.  On every registered topology at small dims, with both
routing functions and zero or one extra VC, the two must agree on
``passed`` and, byte for byte, on ``detail`` -- the use count of a
clean replay, the route and channel of a failing one -- both on the
intact designated graph and on that graph with one vertex pruned, which
is how an analyzer/router drift shows up.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.topology import build_topology
from repro.topology.base import Topology
from repro.verify.cdg import (
    Channel,
    Edges,
    SeparationCheck,
    build_cdg,
    runtime_replay_check,
)
from repro.wormhole.routing import RoutingFunction, make_routing

from .test_walker_oracle import SHAPES


def oracle_runtime_replay_check(
    topology: Topology, routing: RoutingFunction, edges: Edges
) -> SeparationCheck:
    """``runtime_replay_check`` as it stood at d9562be: every route in full."""
    from repro.wormhole.flit import Flit

    vertices = set(edges).union(*edges.values())
    num_classes = routing.num_classes
    replayed = 0
    for src in topology.endpoints():
        for dst in topology.endpoints():
            if src == dst:
                continue
            head = Flit(0, 0, is_head=True, is_tail=True, dst=dst)
            node = src
            while node != dst:
                tiers = routing.candidates(node, dst, head)
                escape_tier = tiers[-1]  # DOR: only tier; adaptive: escape
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
                        replayed += 1
                # Advance along the escape path exactly as a worm
                # committed to it would, updating the header history.
                port, _vcs = escape_tier[0]
                routing.note_hop(node, port, head)
                nxt = topology.neighbor(node, port)
                assert nxt is not None
                node = nxt
    return SeparationCheck(
        "runtime_replay", True,
        f"{replayed} runtime channel uses replayed through "
        "candidates()/note_hop() all match the analyzer's graph",
    )


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(SHAPES)))
    dims = tuple(draw(SHAPES[name]))
    routing = draw(st.sampled_from(["dor", "adaptive"]))
    extra_vcs = draw(st.integers(0, 1))
    victim = draw(st.integers(0, 1 << 16))  # index into the vertex list
    return name, dims, routing, extra_vcs, victim


def pruned(edges: Edges, victim: Channel) -> Edges:
    """The graph with one vertex and every dependency on it removed."""
    return {
        chan: outs - {victim} for chan, outs in edges.items()
        if chan != victim
    }


@settings(max_examples=80, deadline=None)
@given(cases())
@example(("torus", (4, 4), "dor", 1, 0))
@example(("torus", (4, 3), "adaptive", 0, 7))
@example(("mesh", (3, 3), "dor", 0, 5))
@example(("min", (2, 2, 2), "dor", 0, 3))
def test_replay_matches_per_pair_oracle(case):
    name, dims, routing_name, extra_vcs, victim = case
    topology = build_topology(name, dims)
    min_vcs = topology.num_vc_classes + (routing_name == "adaptive")
    routing = make_routing(routing_name, topology, min_vcs + extra_vcs)
    edges = build_cdg(topology, routing)
    vertices = sorted(set(edges).union(*edges.values()))
    graphs = [edges]
    if vertices:
        graphs.append(pruned(edges, vertices[victim % len(vertices)]))
    for graph in graphs:
        got = runtime_replay_check(topology, routing, graph)
        want = oracle_runtime_replay_check(topology, routing, graph)
        assert got.passed == want.passed
        assert got.detail == want.detail


def test_every_vertex_of_a_dateline_torus_drifts_alike():
    """Every single-vertex drift of a torus whose routes reach the same
    node under both dateline states is reported exactly as in full."""
    topology = build_topology("torus", (4, 4))
    routing = make_routing("dor", topology, 2)
    edges = build_cdg(topology, routing)
    for victim in sorted(set(edges).union(*edges.values())):
        graph = pruned(edges, victim)
        got = runtime_replay_check(topology, routing, graph)
        want = oracle_runtime_replay_check(topology, routing, graph)
        assert (got.passed, got.detail) == (want.passed, want.detail)
