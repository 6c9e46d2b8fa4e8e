"""Tests for the static channel-dependency-graph analyzer."""

import pytest

from repro.errors import ConfigError
from repro.sim.config import NetworkConfig, WormholeConfig
from repro.verify.cdg import (
    Channel,
    analyze_config,
    build_cdg,
    config_topology,
    find_cycle,
)
from repro.verify.smt import format_report, verify_config


def shipped_configs():
    return [
        NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None),
        NetworkConfig(topology="torus", dims=(4, 4), protocol="wormhole",
                      wave=None),
        NetworkConfig(topology="hypercube", dims=(2, 2, 2, 2),
                      protocol="wormhole", wave=None),
        NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None,
                      wormhole=WormholeConfig(vcs=3, routing="adaptive")),
        NetworkConfig(topology="torus", dims=(4, 4), protocol="wormhole",
                      wave=None,
                      wormhole=WormholeConfig(vcs=3, routing="adaptive")),
        NetworkConfig(dims=(4, 4), protocol="clrp"),
        NetworkConfig(topology="torus", dims=(4, 4), protocol="carp"),
        NetworkConfig(topology="fullmesh", dims=(8,), protocol="clrp",
                      wormhole=WormholeConfig(vcs=1)),
        NetworkConfig(topology="min", dims=(2, 2, 2), protocol="wormhole",
                      wave=None, wormhole=WormholeConfig(vcs=1)),
    ]


class TestShippedConfigsAcyclic:
    @pytest.mark.parametrize(
        "config", shipped_configs(),
        ids=lambda c: f"{c.topology}-{c.protocol}-{c.wormhole.routing}",
    )
    def test_analyzer_proves_theorems_1_2(self, config):
        report = analyze_config(config)
        assert report.acyclic, report.cycle_chain(config_topology(config))
        assert report.ok
        assert report.num_channels > 0
        if config.topology != "fullmesh":
            assert report.num_deps > 0


class TestCyclicConfigFlagged:
    def test_torus_without_datelines_has_ring_cycle(self):
        config = NetworkConfig(topology="torus", dims=(4, 4),
                               protocol="wormhole", wave=None)
        report = analyze_config(config, assume_classes=1)
        assert not report.acyclic
        assert not report.ok
        # The chain closes: last channel repeats the first.
        assert report.cycle[0] == report.cycle[-1]
        # A torus ring cycle stays within one dimension and one class.
        topo = config_topology(config)
        dims = {topo.port_dimension(ch.port) for ch in report.cycle}
        assert len(dims) == 1
        assert {ch.vc_class for ch in report.cycle} == {0}
        # The offending chain is printable.
        assert "-->" in report.cycle_chain(topo)
        assert "CYCLE" in format_report(
            verify_config(config, assume_classes=1)
        )

    def test_mesh_stays_acyclic_even_with_one_class(self):
        """Dally & Seitz: mesh DOR needs no VC classes at all."""
        config = NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None)
        report = analyze_config(config, assume_classes=1)
        assert report.acyclic

    def test_bad_assume_classes_rejected(self):
        config = NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None)
        with pytest.raises(ConfigError):
            analyze_config(config, assume_classes=0)

    def test_assume_classes_above_pinned_rejected_fullmesh(self):
        """Fullmesh pins a single VC class; pretending it has dateline
        classes would silently relabel the same graph -- the override
        must be rejected, not composed."""
        config = NetworkConfig(topology="fullmesh", dims=(8,),
                               protocol="wormhole", wave=None,
                               wormhole=WormholeConfig(vcs=2))
        with pytest.raises(ConfigError, match="pins"):
            analyze_config(config, assume_classes=2)

    def test_assume_classes_above_pinned_rejected_min(self):
        config = NetworkConfig(topology="min", dims=(2, 2, 2),
                               protocol="wormhole", wave=None,
                               wormhole=WormholeConfig(vcs=2))
        with pytest.raises(ConfigError, match="pins"):
            analyze_config(config, assume_classes=2)

    def test_reducing_classes_still_allowed(self):
        """The meaningful direction -- ignoring torus datelines to show
        the ring cycle -- must keep working."""
        config = NetworkConfig(topology="torus", dims=(4, 4),
                               protocol="wormhole", wave=None)
        report = analyze_config(config, assume_classes=1)
        assert not report.acyclic


class TestNewTopologies:
    def test_fullmesh_single_vc_has_empty_dependency_graph(self):
        """Diameter 1: every route is one hop, so no channel ever waits
        on another -- deadlock-free with a single virtual channel."""
        config = NetworkConfig(topology="fullmesh", dims=(8,),
                               protocol="wormhole", wave=None,
                               wormhole=WormholeConfig(vcs=1))
        report = analyze_config(config)
        assert report.acyclic and report.ok
        assert report.num_channels == 8 * 7
        assert report.num_deps == 0

    def test_min_single_vc_acyclic(self):
        """Butterfly routes only move forward through the stages, so the
        CDG is a DAG with one VC class -- even though the *physical* graph
        is one big cycle (last stage feeds the terminals feed stage 0)."""
        config = NetworkConfig(topology="min", dims=(2, 2, 2),
                               protocol="wormhole", wave=None,
                               wormhole=WormholeConfig(vcs=1))
        report = analyze_config(config)
        assert report.acyclic and report.ok
        assert report.num_deps > 0

    def test_min_cdg_only_covers_terminal_pairs(self):
        """Switch nodes never source worms; no CDG channel leaves a
        last-stage switch toward a terminal *and then* continues."""
        from repro.topology import build_topology
        from repro.wormhole.routing import make_routing

        topo = build_topology("min", (2, 2, 2))
        edges = build_cdg(topo, make_routing("dor", topo, 1))
        terminal_ingress = [
            ch for ch in edges
            if topo.neighbor(ch.node, ch.port) in set(topo.endpoints())
        ]
        # Routes end at terminals: ingress channels depend on nothing.
        assert terminal_ingress
        for ch in terminal_ingress:
            assert not edges[ch]


class TestGraphMatchesRuntime:
    def test_classes_mirror_runtime_dateline_logic(self):
        """The static walk must assign the same VC class the runtime
        router would: replay every DOR route with a real header flit and
        compare against the analyzer's edge set."""
        from repro.topology import build_topology
        from repro.wormhole.flit import Flit
        from repro.wormhole.routing import make_routing

        topo = build_topology("torus", (4, 3))
        routing = make_routing("dor", topo, 2)
        edges = build_cdg(topo, routing)
        vertices = set(edges)
        for ch, outs in edges.items():
            vertices.update(outs)
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                if src == dst:
                    continue
                head = Flit(0, 0, is_head=True, is_tail=True, dst=dst)
                node = src
                while node != dst:
                    [[(port, vcs)]] = routing.candidates(node, dst, head)
                    vc_class = vcs[0] % routing.num_classes
                    assert Channel(node, port, vc_class) in vertices, (
                        f"runtime channel missing from CDG at {node}->{dst}"
                    )
                    routing.note_hop(node, port, head)
                    node = topo.neighbor(node, port)

    def test_adaptive_extended_graph_superset_of_escape_dor(self):
        """Every escape (DOR) dependency must appear in the extended CDG;
        the adaptive closure only ever adds dependencies."""
        from repro.topology import build_topology
        from repro.wormhole.routing import make_routing

        topo = build_topology("torus", (3, 3))
        dor_edges = build_cdg(topo, make_routing("dor", topo, 2))
        ext_edges = build_cdg(topo, make_routing("adaptive", topo, 3))
        for ch, outs in dor_edges.items():
            assert outs <= ext_edges.get(ch, set()), ch

    def test_runtime_replay_check_runs_on_shipped_configs(self):
        """analyze_config now replays every runtime route against the
        analysed graph; the check must be present and passing whenever
        the analysis models the real discipline (assume_classes=None)."""
        for config in shipped_configs():
            report = analyze_config(config)
            replay = [c for c in report.checks if c.name == "runtime_replay"]
            assert len(replay) == 1, config.describe()
            assert replay[0].passed, replay[0].detail

    def test_runtime_replay_skipped_under_assume_classes(self):
        """Under a counterfactual class count the runtime would use
        channels the analysed graph omits -- replay must not run."""
        config = NetworkConfig(topology="torus", dims=(4, 4),
                               protocol="wormhole", wave=None)
        report = analyze_config(config, assume_classes=1)
        assert not any(
            c.name == "runtime_replay" for c in report.checks
        )

    def test_runtime_replay_flags_drifted_graph(self):
        """Drop one edge-set entry from the graph and the replay check
        must name the missing channel instead of passing."""
        from repro.topology import build_topology
        from repro.verify.cdg import runtime_replay_check
        from repro.wormhole.routing import make_routing

        topo = build_topology("torus", (4, 3))
        routing = make_routing("dor", topo, 2)
        edges = build_cdg(topo, routing)
        check = runtime_replay_check(topo, routing, edges)
        assert check.passed
        victim = next(iter(edges))
        pruned = {
            ch: outs - {victim}
            for ch, outs in edges.items() if ch != victim
        }
        check = runtime_replay_check(topo, routing, pruned)
        assert not check.passed
        assert "missing" in check.detail


class TestFindCycle:
    def c(self, node):
        return Channel(node, 0, 0)

    def test_empty_graph(self):
        assert find_cycle({}) == []

    def test_dag(self):
        edges = {self.c(0): {self.c(1)}, self.c(1): {self.c(2)},
                 self.c(2): set()}
        assert find_cycle(edges) == []

    def test_self_loop(self):
        # Structural degenerate case; the walker never creates these, but
        # the detector must not infinite-loop on one.
        edges = {self.c(0): {self.c(0)}}
        cycle = find_cycle(edges)
        assert cycle and cycle[0] == cycle[-1]

    def test_returns_closed_chain(self):
        edges = {self.c(0): {self.c(1)}, self.c(1): {self.c(2)},
                 self.c(2): {self.c(1)}}
        cycle = find_cycle(edges)
        assert cycle[0] == cycle[-1]
        assert {ch.node for ch in cycle} == {1, 2}
