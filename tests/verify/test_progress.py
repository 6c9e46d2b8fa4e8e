"""Tests for the livelock monitors (Theorems 3 and 4, executable)."""

import pytest

from repro.errors import LivelockError
from repro.network.message import MessageFactory
from repro.network.network import Network
from repro.sim.config import NetworkConfig, WaveConfig
from repro.sim.engine import Simulator
from repro.sim.rng import SimRandom
from repro.traffic import UniformPattern, uniform_workload
from repro.verify import ProbeWorkMonitor, max_message_age


class TestProbeWorkMonitor:
    def test_requires_wave_plane(self):
        net = Network(NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None))
        with pytest.raises(LivelockError):
            ProbeWorkMonitor(net)

    def test_bound_never_tripped_under_contention(self):
        """MB-m probes always finish within the work bound (Theorem 3)."""
        config = NetworkConfig(
            dims=(4, 4),
            protocol="clrp",
            wave=WaveConfig(num_switches=1, misroute_budget=2,
                            circuit_cache_size=4),
        )
        net = Network(config)
        monitor = ProbeWorkMonitor(net)
        factory = MessageFactory()
        workload = uniform_workload(
            factory,
            UniformPattern(16),
            num_nodes=16,
            offered_load=0.3,
            length=16,
            duration=1500,
            rng=SimRandom(9),
        )
        sim = Simulator(net, workload, on_cycle=lambda n: monitor.check())
        result = sim.run(60_000)
        assert result.completed

    def test_monitor_raises_on_fabricated_overwork(self):
        config = NetworkConfig(dims=(4, 4), protocol="clrp")
        net = Network(config)
        monitor = ProbeWorkMonitor(net, max_waits=0)
        circuit, probe = net.plane.launch_probe(0, 5, 0, force=False, cycle=0)
        probe.hops = monitor.bound() + 1
        with pytest.raises(LivelockError):
            monitor.check()

    def test_exactly_at_bound_is_legal(self):
        """The MB-m bound is inclusive: work == bound() must not trip."""
        config = NetworkConfig(dims=(4, 4), protocol="clrp")
        net = Network(config)
        monitor = ProbeWorkMonitor(net, max_waits=0)
        circuit, probe = net.plane.launch_probe(0, 5, 0, force=False, cycle=0)
        probe.hops = monitor.bound()
        monitor.check()  # no raise
        probe.backtracks = 1  # work = bound() + 1
        with pytest.raises(LivelockError):
            monitor.check()


class TestMessageAge:
    def test_zero_when_all_delivered(self):
        config = NetworkConfig(dims=(4, 4), protocol="clrp")
        net = Network(config)
        factory = MessageFactory()
        net.inject(factory.make(0, 5, 16, 0))
        for _ in range(5000):
            net.step()
            if net.is_idle():
                break
        assert max_message_age(net) == 0

    def test_tracks_oldest_undelivered(self):
        config = NetworkConfig(dims=(4, 4), protocol="clrp")
        net = Network(config)
        factory = MessageFactory()
        net.inject(factory.make(0, 15, 4096, 0))
        net.run(10)
        assert max_message_age(net) == 10


class TestMessageAgeIdle:
    def test_zero_on_empty_idle_network(self):
        """A network that never saw a message has no age to report."""
        net = Network(NetworkConfig(dims=(4, 4), protocol="clrp"))
        assert net.is_idle()
        assert max_message_age(net) == 0
        net.run(50)  # stays zero no matter how long it idles
        assert max_message_age(net) == 0


class TestEngineProgressTimeout:
    def test_livelock_error_when_network_wedged(self):
        """Fabricate a wedged state: a message queued at an engine entry
        that will never be served (its circuit object is gone and no probe
        is in flight), then expect the Simulator's monitor to fire."""
        config = NetworkConfig(dims=(4, 4), protocol="clrp")
        net = Network(config)
        factory = MessageFactory()
        msg = factory.make(0, 5, 16, 0)
        net.inject(msg)
        # Sabotage: rip the in-flight probe out of the plane so nothing
        # will ever complete the setup.
        net.plane.probes.clear()
        sim = Simulator(net, [], progress_timeout=200)
        with pytest.raises(LivelockError):
            sim.run(10_000)
