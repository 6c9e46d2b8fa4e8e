"""F2: the hybrid wave router of Fig. 2, as the Network holds it.

Per node, switch S0 with its wormhole routing control unit is
``net.routers[n]``; switches S1..Sk and the PCS routing control unit
(control channels, status registers, History Store) are
``net.plane.units[n]``.  A wave-pipelined crossbar holds no flits, so
its whole observable state is which input maps to which output: the
node's Direct Channel Mappings restricted to that switch.
"""

import pytest

from repro.network.message import MessageFactory
from repro.network.network import Network
from repro.sim.config import NetworkConfig, WaveConfig, WormholeConfig


def make_net(k=2, w=3):
    config = NetworkConfig(
        dims=(4, 4),
        protocol="clrp",
        wormhole=WormholeConfig(vcs=w),
        wave=WaveConfig(num_switches=k),
    )
    return Network(config)


class TestComposition:
    def test_s0_and_pcs_unit_per_node(self):
        net = make_net()
        assert len(net.routers) == len(net.plane.units) == 16
        for n in range(16):
            assert net.routers[n].node == n
            assert net.plane.units[n].node == n

    def test_fig2_channel_accounting(self):
        """Each S0 physical channel splits into k + w virtual channels:
        k single-flit control channels plus w wormhole data channels."""
        net = make_net(k=3, w=2)
        k = net.plane.units[0].num_switches
        w = net.routers[0].config.vcs
        assert (k, w, k + w) == (3, 2, 5)

    def test_simplest_wave_router_k1(self):
        """The paper's 'simplest version': k=1 (w=0 is not simulable for
        the fallback path, so w stays >= 1)."""
        net = make_net(k=1, w=1)
        assert net.plane.units[0].num_switches == 1

    def test_circuit_switch_state_reflects_mappings(self):
        net = make_net(k=2)
        net.inject(MessageFactory().make(0, 10, 32, 0))
        for _ in range(5000):
            net.step()
            if net.is_idle():
                break
        # The circuit crossed some node: that node's wave switch must show
        # a configured input->output connection on the circuit's switch.
        circuit = net.plane.table.established()[0]
        assert circuit.length > 1
        mid_node = circuit.path[1][0]
        state = {
            in_key: out_key
            for in_key, out_key in net.plane.units[mid_node].direct_map.items()
            if in_key[1] == circuit.switch
        }
        assert state  # at least one configured connection
        for in_key, out_key in state.items():
            assert in_key[1] == circuit.switch
            assert out_key[1] == circuit.switch

    @pytest.mark.parametrize(
        "topology, dims",
        [("mesh", (4, 4)), ("torus", (4, 4)), ("hypercube", (2, 2, 2, 2))],
    )
    def test_s0_and_wave_switches_share_the_physical_ports(self, topology, dims):
        """S0 and S1..Sk hang off the same physical channels: per node,
        S0 has w VCs on each of the topology's ports, and the PCS unit
        keeps one status register per (port, switch)."""
        net = Network(NetworkConfig(
            topology=topology,
            dims=dims,
            protocol="clrp",
            wormhole=WormholeConfig(vcs=2),
            wave=WaveConfig(num_switches=3),
        ))
        ports = net.topology.num_ports
        for n in range(net.config.num_nodes):
            router, unit = net.routers[n], net.plane.units[n]
            assert len(router.outputs) == unit.num_ports == ports
            assert all(len(vcs) == 2 for vcs in router.outputs)
            assert len(unit.regs) == ports * 3

    def test_wormhole_baseline_has_no_wave_side(self):
        net = Network(NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None))
        assert net.plane is None
        assert len(net.routers) == 16
