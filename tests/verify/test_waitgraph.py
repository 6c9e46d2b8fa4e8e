"""Unit tests for the wait-for-graph construction itself."""

import pytest

from repro.network.message import MessageFactory
from repro.network.network import Network
from repro.sim.config import NetworkConfig, WormholeConfig
from repro.verify.invariants import check_credit_sanity
from repro.verify.waitgraph import build_wait_graph
from repro.wormhole.flit import make_worm


def make_net(vcs=1, buffer_depth=1, dims=(3,)):
    config = NetworkConfig(
        dims=dims,
        protocol="wormhole",
        wave=None,
        wormhole=WormholeConfig(vcs=vcs, buffer_depth=buffer_depth),
    )
    return Network(config), MessageFactory()


class TestForemostSite:
    def test_site_is_lowest_flit_index(self):
        """A worm strung over two routers is tracked at its header."""
        net, factory = make_net(buffer_depth=2)
        net.inject(factory.make(0, 2, 6, 0))
        net.run(3)  # header has advanced, body still following
        graph = build_wait_graph(net)
        [entry] = graph.entries.values()
        # The site holds the worm's smallest index currently buffered.
        router = net.routers[entry.node]
        head = router.inputs[entry.in_port][entry.in_vc].head()
        indices = [
            r.inputs[p][v].head().index
            for r in net.routers
            for (p, v) in r._active
            if r.inputs[p][v].head() is not None
            and r.inputs[p][v].head().msg_id == 0
        ]
        assert head.index == min(indices)


class TestNoCreditAttribution:
    def test_blocked_on_other_worm_names_it(self):
        """Worm B routed behind worm A reports A as its blocker."""
        net, factory = make_net(vcs=1, buffer_depth=1, dims=(4,))
        topo = net.topology
        # Worm A (id 100): header parked at node 2 input, UNROUTED is not
        # what we want -- make it routed but credit-starved further on by
        # filling node 3's buffer with its own flits? Simpler: construct
        # B waiting on A's buffer occupancy directly.
        worm_a = make_worm(100, dst=3, length=3)
        for f in worm_a:
            f.arrival = 0
        # A's header sits (unrouted) in node 2's input from node 1.
        port_1_to_2_pre = topo.minimal_ports(1, 2)[0]
        in_port_at_2 = topo.reverse_port(1, port_1_to_2_pre)
        net.routers[2].inputs[in_port_at_2][0].buffer.append(worm_a[0])
        net.routers[2]._active.add((in_port_at_2, 0))
        # B (id 101) at node 1, routed towards node 2 on the same VC,
        # zero credits because A's header fills the depth-1 buffer.
        worm_b = make_worm(101, dst=3, length=3)
        for f in worm_b:
            f.arrival = 0
        inj = net.routers[1].inputs[net.routers[1].inject_port][0]
        inj.buffer.extend(worm_b[:2])
        port_1_to_2 = topo.minimal_ports(1, 2)[0]
        inj.route = (port_1_to_2, 0)
        net.routers[1]._active.add((net.routers[1].inject_port, 0))
        net.routers[1].outputs[port_1_to_2][0].owner = (
            net.routers[1].inject_port, 0
        )
        net.routers[1].outputs[port_1_to_2][0].credits = 0
        graph = build_wait_graph(net)
        entry_b = graph.entries[101]
        assert not entry_b.free
        assert entry_b.blockers == {100}
        assert entry_b.reason == "no_credit"
        # A itself is an unrouted header with a free way forward.
        entry_a = graph.entries[100]
        assert entry_a.free

    def test_credit_available_reports_free(self):
        net, factory = make_net(buffer_depth=4)
        net.inject(factory.make(0, 2, 4, 0))
        net.run(2)
        graph = build_wait_graph(net)
        for entry in graph.entries.values():
            assert entry.free or entry.blockers


class TestReadsFreshState:
    def test_same_graph_on_both_cores_every_cycle(self):
        """The readers refresh the fast core's router views themselves:
        stepped without a Simulator, its wait graph and credit audit
        match the reference loop's cycle for cycle."""
        nets = []
        for backend in ("active", "reference"):
            config = NetworkConfig(
                dims=(3, 3), protocol="wormhole", wave=None,
                wormhole=WormholeConfig(vcs=1, buffer_depth=1),
                backend=backend,
            )
            net, factory = Network(config), MessageFactory()
            for src, dst in [(0, 8), (8, 0), (2, 6), (6, 2), (3, 5), (4, 0)]:
                net.inject(factory.make(src, dst, 10, 0))
            nets.append(net)
        saw_blocked = False
        for _ in range(200):
            graphs = []
            for net in nets:
                net.step()
                check_credit_sanity(net)
                graphs.append(build_wait_graph(net).entries)
            assert graphs[0] == graphs[1]
            saw_blocked |= any(e.blockers for e in graphs[0].values())
            if all(net.is_idle() for net in nets):
                break
        assert saw_blocked
        assert all(net.is_idle() for net in nets)


class TestEjectWait:
    def test_eject_contention_attributed(self):
        """Two worms racing for the single ejection path at one node."""
        net, factory = make_net(vcs=1, buffer_depth=2, dims=(3,))
        # With one VC there is a single eject VC; worm A delivering long
        # message holds it while worm B's header waits.
        net.inject(factory.make(0, 1, 12, 0))
        net.inject(factory.make(2, 1, 12, 0))
        saw_eject_wait = False
        for _ in range(60):
            net.step()
            graph = build_wait_graph(net)
            for entry in graph.entries.values():
                if entry.reason == "eject_wait" and entry.blockers:
                    saw_eject_wait = True
            if net.is_idle():
                break
        assert saw_eject_wait
        assert all(m.delivered > 0 for m in net.stats.messages.values())
