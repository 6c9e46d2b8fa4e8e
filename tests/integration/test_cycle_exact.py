"""Cycle-exactness of the fast stepping core.

``Network.step`` (active sets, O(1) idleness and the struct-of-arrays
wormhole core) and ``Simulator``'s idle fast-forward are pure
performance work: for any seed and workload they must produce
*bit-identical* results to ``Network.step_reference`` (the original
O(num_nodes) loop) driven without fast-forward.  These tests run the
default backend over the same configurations as the reference -- all
three protocols, mesh, torus, fullmesh and MIN, with a bursty workload
full of idle gaps (the fast-forward path's favourite food) -- and
compare every observable: counters, per-message records, mode
breakdown, final cycle and work counter.  A fault + reliability
scenario and the fuzzer's corpus reproducers repeat the comparison with
the recovery machinery engaged.  ``vectorized`` is another name for the
same core (``test_backend_names_bind_two_cores``).

Separate runs per configuration step with the registry validator and
the core's flat-array drift check attached, asserting both against the
O(N) ground truth on every cycle.
"""

import dataclasses
from functools import lru_cache
from pathlib import Path

import pytest

from repro.network.message import MessageFactory
from repro.network.network import Network
from repro.orchestrate.runner import execute_job
from repro.sim.config import (
    NetworkConfig,
    ReliabilityConfig,
    WaveConfig,
    WormholeConfig,
)
from repro.sim.engine import Simulator
from repro.sim.events import EventKind, EventLog
from repro.sim.rng import SimRandom
from repro.topology import build_topology
from repro.topology.faults import FaultSchedule, derive_fault_rng
from repro.traffic import UniformPattern, compile_directives, uniform_workload
from repro.verify.fuzz import load_spec

MAX_CYCLES = 60_000
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
BACKENDS = ["active"]


def make_config(protocol: str, topology: str, dims: tuple) -> NetworkConfig:
    wave = None
    if protocol != "wormhole":
        wave = WaveConfig(
            num_switches=2,
            circuit_cache_size=2,
            replacement="lru",
            model_buffers=True,
            buffer_realloc_penalty=20,
        )
    vcs = 2 if topology == "torus" else 1
    return NetworkConfig(
        topology=topology,
        dims=dims,
        protocol=protocol,
        wormhole=WormholeConfig(vcs=vcs, routing="dor", buffer_depth=2),
        wave=wave,
        seed=11,
    )


def bursty_workload(protocol: str, num_nodes: int, wl_seed: int):
    """Three short bursts separated by long idle gaps."""
    factory = MessageFactory()
    pattern = UniformPattern(num_nodes)
    rng = SimRandom(wl_seed)
    msgs = []
    for burst, (start, load, length) in enumerate(
        [(0, 0.25, 12), (2_500, 0.4, 33), (9_000, 0.15, 4)]
    ):
        burst_msgs = uniform_workload(
            factory,
            pattern,
            num_nodes=num_nodes,
            offered_load=load,
            length=length,
            duration=120,
            rng=rng.fork(f"burst{burst}"),
        )
        for m in burst_msgs:
            m.created += start
        msgs.extend(burst_msgs)
    if protocol == "carp":
        items, _report = compile_directives(msgs, min_messages=2, min_flits=2)
        return items
    return msgs


def fingerprint(net: Network, result) -> dict:
    stats = net.stats
    records = tuple(
        (
            m.msg_id, m.src, m.dst, m.length, m.created, m.injected,
            m.delivered, None if m.mode is None else m.mode.value,
            m.hops, m.setup_cycles,
        )
        for m in sorted(stats.messages.values(), key=lambda m: m.msg_id)
    )
    return {
        "counters": dict(sorted(stats.counters.items())),
        "records": records,
        "modes": stats.mode_breakdown(),
        "outstanding": stats.outstanding,
        "cycle": net.cycle,
        "work": net.work_counter,
        "result": (result.cycles, result.completed, result.injected,
                   result.delivered),
    }


def run_one(protocol, topology, dims, *, backend, on_cycle=None):
    config = dataclasses.replace(
        make_config(protocol, topology, dims), backend=backend
    )
    net = Network(config)
    items = bursty_workload(protocol, config.num_nodes, wl_seed=99)
    sim = Simulator(
        net,
        items,
        deadlock_check_interval=64,
        progress_timeout=20_000,
        on_cycle=on_cycle,
        fast_forward=backend != "reference",
    )
    result = sim.run(MAX_CYCLES)
    assert result.completed, f"{protocol}/{topology} did not drain"
    return net, result


CONFIGS = [
    ("wormhole", "mesh", (4, 4)),
    ("wormhole", "torus", (3, 3)),
    ("clrp", "mesh", (4, 4)),
    ("clrp", "torus", (3, 3)),
    ("carp", "mesh", (4, 4)),
    ("carp", "torus", (3, 3)),
    # New topology families: diameter-1 full mesh and unidirectional MIN.
    ("wormhole", "fullmesh", (9,)),
    ("clrp", "fullmesh", (9,)),
    ("wormhole", "min", (2, 2, 2)),
    ("clrp", "min", (2, 2, 2)),
]


@lru_cache(maxsize=None)
def reference_fingerprint(protocol, topology, dims):
    net, result = run_one(protocol, topology, dims, backend="reference")
    return fingerprint(net, result)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("protocol,topology,dims", CONFIGS)
def test_backend_matches_reference(protocol, topology, dims, backend):
    net, result = run_one(protocol, topology, dims, backend=backend)
    assert fingerprint(net, result) == reference_fingerprint(
        protocol, topology, dims
    )


def validate_every_structure(net: Network) -> None:
    net.activity.validate(net)
    if net._core is not None and net._core.attached:
        net._core.validate(net)


@pytest.mark.parametrize(
    "protocol,topology,dims",
    [("wormhole", "mesh", (4, 4)),
     ("clrp", "mesh", (4, 4)),
     ("carp", "torus", (3, 3))],
)
def test_activity_tracker_invariants_hold_every_cycle(protocol, topology, dims):
    # on_cycle disables fast-forward, so the validators see every cycle:
    # the ActivityTracker registries and the core's struct-of-arrays
    # state, both against the ground truth a full scan reconstructs.
    net, _result = run_one(
        protocol, topology, dims,
        backend="active",
        on_cycle=validate_every_structure,
    )
    assert net._core is not None
    validate_every_structure(net)


# -- faults + reliability ---------------------------------------------------


def run_faulted(backend):
    """Bursty wormhole run with a live fault campaign and the ack /
    retransmit layer engaged -- the backends must agree while worms are
    purged, poisoned, retried and (sometimes) double-delivered."""
    config = dataclasses.replace(
        make_config("wormhole", "mesh", (4, 4)),
        backend=backend,
        reliability=ReliabilityConfig(
            timeout=400, max_timeout=1600, max_retries=4
        ),
    )
    sched = FaultSchedule.random_campaign(
        build_topology("mesh", (4, 4)),
        mtbf=900, mttr=600, horizon=9_500,
        rng=derive_fault_rng(config.seed),
    )
    net = Network(config, faults=sched)
    items = bursty_workload("wormhole", config.num_nodes, wl_seed=99)
    sim = Simulator(
        net, items,
        progress_timeout=20_000,
        fast_forward=backend != "reference",
    )
    result = sim.run(MAX_CYCLES)
    return fingerprint(net, result)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_equivalence_under_faults_and_reliability(backend):
    fp = run_faulted(backend)
    # The campaign must actually exercise the recovery paths for the
    # equivalence to mean anything.
    assert fp["counters"]["fault.links_killed"] > 0
    assert fp["counters"]["reliability.retransmits"] > 0
    assert fp == run_faulted("reference")


# -- fuzzer corpus reproducers ---------------------------------------------


@pytest.mark.parametrize(
    "spec_name", ["clrp_phase_budget.json", "deadlock_selfwait.json"]
)
def test_corpus_reproducers_match_across_backends(spec_name):
    """The regression corpus re-runs bit-identically on every backend."""
    spec = load_spec(CORPUS / spec_name)

    def metrics(backend):
        return execute_job(
            dataclasses.replace(
                spec,
                config=dataclasses.replace(spec.config, backend=backend),
            )
        )

    assert metrics("active") == metrics("reference")


def test_backend_names_bind_two_cores():
    """``active`` and ``vectorized`` name one core, built on first use;
    ``reference`` binds the executable spec."""
    base = make_config("wormhole", "mesh", (4, 4))
    nets = {
        b: Network(dataclasses.replace(base, backend=b))
        for b in ("active", "vectorized", "reference")
    }
    assert nets["active"].step.__func__ is Network.step
    assert nets["vectorized"].step.__func__ is Network.step
    assert nets["reference"].step.__func__ is Network.step_reference
    assert all(net._core is None for net in nets.values())


# -- event traces -----------------------------------------------------------


TRACE_CONFIGS = {
    "wormhole-adaptive": NetworkConfig(
        topology="mesh", dims=(4, 4), protocol="wormhole", wave=None,
        wormhole=WormholeConfig(vcs=2, routing="adaptive", buffer_depth=2),
        seed=5,
    ),
    "clrp": make_config("clrp", "mesh", (4, 4)),
}


def traced_events(config: NetworkConfig, backend: str) -> list:
    """Events of one run whose event log is attached mid-run, after the
    fast core is built and attached."""
    net = Network(dataclasses.replace(config, backend=backend))
    items = bursty_workload(config.protocol, config.num_nodes, wl_seed=3)
    sim = Simulator(net, items, progress_timeout=20_000,
                    fast_forward=backend != "reference")
    sim.run(150)
    if backend != "reference":
        assert net._core is not None and net._core.attached
    log = EventLog()
    net.attach_event_log(log)
    assert sim.run(MAX_CYCLES).completed
    return log.events


@pytest.mark.parametrize("name", sorted(TRACE_CONFIGS))
def test_event_stream_matches_reference(name):
    config = TRACE_CONFIGS[name]
    events = traced_events(config, "active")
    kinds = {e.kind for e in events}
    assert EventKind.WORM_HEAD_ADVANCE in kinds
    assert EventKind.WORM_TAIL_ADVANCE in kinds
    assert events == traced_events(config, "reference")


def test_fast_forward_skips_idle_gaps():
    """The fast-forwarded run must do far fewer step() calls while
    reporting the exact same final cycle."""
    config = make_config("wormhole", "mesh", (4, 4))

    def counted(reference):
        net = Network(config)
        items = bursty_workload("wormhole", config.num_nodes, wl_seed=7)
        steps = 0
        original = net.step

        def stepper():
            nonlocal steps
            steps += 1
            original()

        net.step = stepper
        sim = Simulator(net, items, fast_forward=not reference)
        result = sim.run(MAX_CYCLES)
        assert result.completed
        return steps, result.cycles

    ref_steps, ref_cycles = counted(reference=True)
    act_steps, act_cycles = counted(reference=False)
    assert act_cycles == ref_cycles
    # The workload has ~10k cycles of idle gap; nearly all must be skipped.
    assert act_steps < ref_steps / 2
