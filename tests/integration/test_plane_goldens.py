"""Golden differential for the wave plane across implementation changes.

``Network.step`` (the fast core, backends ``active`` and ``vectorized``)
and ``step_reference`` drive the same
:class:`~repro.circuits.plane.WavePlane`, so the cycle-exact tests and
the fuzzer's differential oracle (core vs reference) cannot see a
regression *inside* the plane: both would move together.  This file
pins the plane's simulated
behaviour against ``tests/corpus/plane_goldens.json``, which was written
by running this file as a script **at commit c8c0f5a**, the last one
whose plane stepped every transfer with ``WaveTransfer.advance()`` each
cycle::

    PYTHONPATH=src python tests/integration/test_plane_goldens.py

Each golden is the benchmark-style fingerprint (cycles, injected,
delivered, ``work_counter``, ``mean_latency``, every stats counter) plus
a hash of the per-message records and of the per-cycle ``work_counter``
trajectory -- the latter because the progress monitors read work per
cycle, not only at drain.  Regenerate only for a deliberate model
change, never to make a plane optimisation pass.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.network.message import MessageFactory
from repro.network.network import Network
from repro.sim.config import (
    NetworkConfig,
    ReliabilityConfig,
    WaveConfig,
    WormholeConfig,
)
from repro.sim.engine import Simulator
from repro.sim.rng import SimRandom
from repro.topology import build_topology
from repro.topology.faults import FaultSchedule, derive_fault_rng
from repro.traffic import UniformPattern, compile_directives, uniform_workload
from repro.traffic.locality import LocalityWorkloadBuilder

GOLDENS = Path(__file__).resolve().parent.parent / "corpus" / "plane_goldens.json"
BACKENDS = ("reference", "active", "vectorized")
MAX_CYCLES = 200_000


@dataclasses.dataclass(frozen=True)
class Scenario:
    protocol: str = "clrp"
    topology: str = "mesh"
    dims: tuple = (4, 4)
    window: int = 256
    channel_width_factor: float = 1.0
    traffic: str = "uniform"  # "uniform" | "locality"
    load: float = 0.5
    length: int = 96
    duration: int = 1_500
    wire_delay: int = 1
    fault_mtbf: int = 0  # 0 = no faults
    retransmit_timeout: int = 0  # 0 = no reliability layer


SCENARIOS = {
    "clrp_4x4": Scenario(),
    # window < rate * rtt on every circuit longer than one hop.
    "clrp_4x4_window8": Scenario(window=8),
    "clrp_4x4_half_width": Scenario(channel_width_factor=0.5),
    # rate 4/3: the float accumulator's send pattern, not floor(k * rate).
    "clrp_4x4_third_width": Scenario(channel_width_factor=1 / 3),
    "carp_4x4": Scenario(protocol="carp", traffic="locality"),
    "carp_4x4_window8_half_width": Scenario(
        protocol="carp", traffic="locality", window=8,
        channel_width_factor=0.5,
    ),
    # rate * rtt = 8 * hops: circuits of 17+ hops throttle, shorter ones
    # stream unthrottled, so both schedule kinds share one run.
    "clrp_16x16_window128": Scenario(
        dims=(16, 16), window=128, load=0.15, length=160, duration=500
    ),
    # Links die under streaming circuits; the slow wires widen the gap
    # between delivery and the last ack, so both fault outcomes occur
    # (severed mid-stream, cut after delivery).  Unthrottled, then with
    # window < rate * rtt on every circuit.
    "clrp_4x4_faults": Scenario(
        traffic="locality", length=192, duration=3_000, wire_delay=5,
        fault_mtbf=80,
    ),
    "clrp_4x4_faults_window32": Scenario(
        traffic="locality", length=192, duration=3_000, wire_delay=5,
        fault_mtbf=80, window=32,
    ),
    # The ack / retransmit layer resends the same Message object: copies
    # of delivered messages stream again and must stay silent on arrival.
    "clrp_4x4_faults_retransmit": Scenario(
        traffic="locality", length=192, duration=3_000, wire_delay=5,
        fault_mtbf=80, retransmit_timeout=250,
    ),
}


def make_config(s: Scenario, backend: str) -> NetworkConfig:
    return NetworkConfig(
        topology=s.topology,
        dims=s.dims,
        protocol=s.protocol,
        wormhole=WormholeConfig(routing="dor"),
        wave=WaveConfig(
            window=s.window, channel_width_factor=s.channel_width_factor,
            wire_delay=s.wire_delay,
        ),
        seed=23,
        backend=backend,
        reliability=ReliabilityConfig(
            timeout=s.retransmit_timeout,
            max_timeout=4 * s.retransmit_timeout, max_retries=6,
        ) if s.retransmit_timeout else None,
    )


def make_traffic(s: Scenario, topology) -> list:
    rng = SimRandom(41)
    if s.traffic == "locality":
        msgs = LocalityWorkloadBuilder(
            topology, reuse=16, spatial_decay=0.5
        ).build(
            MessageFactory(), offered_load=s.load, length=s.length,
            duration=s.duration, rng=rng,
        )
    else:
        msgs = uniform_workload(
            MessageFactory(), UniformPattern(topology.num_endpoints),
            num_nodes=topology.num_endpoints, offered_load=s.load,
            length=s.length, duration=s.duration, rng=rng,
        )
    if s.protocol == "carp":
        msgs, _report = compile_directives(msgs, min_messages=2, min_flits=2)
    return msgs


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def run_scenario(s: Scenario, backend: str) -> dict:
    config = make_config(s, backend)
    faults = None
    if s.fault_mtbf:
        faults = FaultSchedule.random_campaign(
            build_topology(s.topology, s.dims),
            mtbf=s.fault_mtbf, mttr=400, horizon=s.duration,
            rng=derive_fault_rng(config.seed),
        )
    net = Network(config, faults=faults)
    trajectory: list[int] = []
    # on_cycle also turns fast-forward off, so every backend records one
    # work_counter sample per simulated cycle.
    sim = Simulator(
        net, make_traffic(s, net.topology),
        progress_timeout=20_000,
        on_cycle=lambda n: trajectory.append(n.work_counter),
    )
    result = sim.run(MAX_CYCLES)
    stats = net.stats
    records = [
        (m.msg_id, m.injected, m.delivered,
         None if m.mode is None else m.mode.value, m.hops, m.setup_cycles)
        for m in sorted(stats.messages.values(), key=lambda m: m.msg_id)
    ]
    return {
        "cycles": result.cycles,
        "completed": result.completed,
        "injected": result.injected,
        "delivered": result.delivered,
        "work_counter": net.work_counter,
        "mean_latency": stats.mean_latency(),
        "counters": dict(sorted(stats.counters.items())),
        "records_sha": digest(records),
        "work_trajectory_sha": digest(trajectory),
    }


def load_goldens(path: Path = GOLDENS) -> dict:
    return json.loads(path.read_text())["scenarios"]


def write_goldens(path: Path, scenarios: dict) -> None:
    """Run every scenario on all three backends and record the result."""
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    goldens = {}
    for name, scenario in sorted(scenarios.items()):
        golden = run_scenario(scenario, "reference")
        for backend in BACKENDS[1:]:
            assert run_scenario(scenario, backend) == golden, (name, backend)
        goldens[name] = golden
        print(name, golden["cycles"], golden["work_counter"],
              golden["counters"].get("wave.transfers_completed"))
    path.write_text(
        json.dumps({"generated_at_commit": commit, "scenarios": goldens},
                   indent=1, sort_keys=True) + "\n"
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_plane_golden_replays(name, backend):
    assert run_scenario(SCENARIOS[name], backend) == load_goldens()[name]


def test_goldens_cover_both_schedule_kinds_and_faults():
    """The scenarios must exercise what they claim to, or replaying them
    proves nothing about throttled, fractional-rate or severed transfers."""
    goldens = load_goldens()
    assert sorted(goldens) == sorted(SCENARIOS)
    for name, golden in goldens.items():
        assert golden["counters"]["wave.transfers_completed"] > 20, name
    for name in ("clrp_4x4_faults", "clrp_4x4_faults_window32"):
        faulted = goldens[name]["counters"]
        assert faulted["wave.transfers_severed"] > 0, name
        assert faulted["wave.transfers_cut_after_delivery"] > 0, name
    # Throttling shows as a slower run on the same traffic.
    assert (
        goldens["clrp_4x4_window8"]["mean_latency"]
        > goldens["clrp_4x4"]["mean_latency"]
    )


if __name__ == "__main__":
    write_goldens(GOLDENS, SCENARIOS)
