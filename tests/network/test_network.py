"""End-to-end tests for the Network assembly and the Simulator."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.network.message import MessageFactory
from repro.network.network import Network
from repro.sim.config import NetworkConfig, WaveConfig, WormholeConfig
from repro.sim.engine import Simulator
from repro.sim.rng import SimRandom
from repro.traffic import UniformPattern, uniform_workload
from repro.verify import check_all_invariants


def small_workload(config, load=0.05, length=16, duration=500, seed=3):
    factory = MessageFactory()
    return uniform_workload(
        factory,
        UniformPattern(config.num_nodes),
        num_nodes=config.num_nodes,
        offered_load=load,
        length=length,
        duration=duration,
        rng=SimRandom(seed),
    )


ALL_CONFIGS = [
    NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None),
    NetworkConfig(dims=(4, 4), protocol="clrp"),
    NetworkConfig(dims=(4, 4), protocol="carp"),
    NetworkConfig(topology="torus", dims=(4, 4), protocol="clrp"),
    NetworkConfig(topology="hypercube", dims=(2, 2, 2, 2), protocol="clrp"),
    NetworkConfig(
        dims=(4, 4),
        protocol="clrp",
        wormhole=WormholeConfig(vcs=3, routing="adaptive"),
    ),
    NetworkConfig(
        topology="torus",
        dims=(4, 4),
        protocol="clrp",
        wormhole=WormholeConfig(vcs=4, routing="adaptive"),
    ),
]


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.describe())
class TestEndToEnd:
    def test_all_messages_delivered(self, config):
        net = Network(config)
        workload = small_workload(config)
        result = Simulator(net, workload, progress_timeout=10_000).run(100_000)
        assert result.completed
        assert result.delivered == result.injected
        check_all_invariants(net)

    def test_deadlock_checks_clean(self, config):
        net = Network(config)
        workload = small_workload(config, load=0.15)
        result = Simulator(
            net, workload, deadlock_check_interval=50, progress_timeout=10_000
        ).run(100_000)
        assert result.completed


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def run():
            config = NetworkConfig(dims=(4, 4), protocol="clrp", seed=11)
            net = Network(config)
            workload = small_workload(config, load=0.2, seed=11)
            Simulator(net, workload).run(50_000)
            return [
                (m.msg_id, m.delivered, m.mode)
                for m in net.stats.messages.values()
            ]

        assert run() == run()

    def test_different_seed_differs(self):
        def run(seed):
            config = NetworkConfig(dims=(4, 4), protocol="clrp", seed=seed)
            net = Network(config)
            workload = small_workload(config, load=0.2, seed=seed)
            Simulator(net, workload).run(50_000)
            return [(m.msg_id, m.delivered) for m in net.stats.messages.values()]

        assert run(1) != run(2)


class TestSimulatorDriver:
    def test_run_in_slices_continues(self):
        config = NetworkConfig(dims=(4, 4), protocol="clrp")
        net = Network(config)
        workload = small_workload(config)
        sim = Simulator(net, workload)
        r1 = sim.run(10)
        assert r1.cycles == 10
        r2 = sim.run(100_000)
        assert r2.completed

    def test_negative_cycles_rejected(self):
        config = NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None)
        sim = Simulator(Network(config))
        with pytest.raises(SimulationError):
            sim.run(-1)

    def test_run_after_drain_rejected(self):
        config = NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None)
        net = Network(config)
        sim = Simulator(net, [])
        sim.run(10)
        with pytest.raises(SimulationError):
            sim.run(10)

    def test_messages_respect_creation_time(self):
        config = NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None)
        net = Network(config)
        factory = MessageFactory()
        msgs = [factory.make(0, 5, 4, 100)]
        Simulator(net, msgs).run(50_000)
        assert net.stats.messages[0].injected >= 100

    def test_inject_rejects_unknown_type(self):
        config = NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None)
        net = Network(config)
        with pytest.raises(ConfigError):
            net.inject("not a message")


class TestWorkCounter:
    def test_work_counter_advances_with_traffic(self):
        config = NetworkConfig(dims=(4, 4), protocol="clrp")
        net = Network(config)
        factory = MessageFactory()
        net.inject(factory.make(0, 5, 16, 0))
        before = net.work_counter
        net.run(50)
        assert net.work_counter > before

    def test_idle_network_does_no_work(self):
        config = NetworkConfig(dims=(4, 4), protocol="clrp")
        net = Network(config)
        net.run(50)
        assert net.work_counter == 0
        assert net.is_idle()


class TestRouterViews:
    def test_written_back_once_per_stepped_cycle(self):
        """Several readers on one cycle pay for one write-back: a view
        edited after a refresh survives the next refresh, and is
        overwritten from the core's arrays once a step has run."""
        net = Network(NetworkConfig(dims=(3, 3), protocol="wormhole", wave=None))
        net.inject(MessageFactory().make(0, 8, 10, 0))
        net.run(5)
        assert net._core is not None and not net._core.synced
        net.materialize_views()
        out = net.routers[4].outputs[0][0]
        out.credits = 99
        net.materialize_views()
        assert out.credits == 99
        net.step()
        net.materialize_views()
        assert out.credits == net.config.wormhole.buffer_depth
