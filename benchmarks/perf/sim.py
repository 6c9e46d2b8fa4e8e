"""The three simulator workloads: batch runs of one 8x8-mesh network.

Each run builds the traffic from ``--seed``, simulates it to drain on
the ``active`` backend and again on ``vectorized``, and requires the
two outcomes to be identical down to every stats counter.  ``work`` is
the simulator's own count of state-changing events
(``Network.work_counter``): it is a property of the input, identical on
every backend, so events per host second compares two implementations
on equal terms and varies far less from seed to seed than cycles per
second does (the drain tail's length depends on the seed; the events to
simulate barely do).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

from repro.network.message import MessageFactory
from repro.network.network import Network
from repro.sim.config import NetworkConfig, WaveConfig, WormholeConfig
from repro.sim.engine import Simulator
from repro.sim.rng import SimRandom
from repro.traffic.locality import LocalityWorkloadBuilder
from repro.traffic.patterns import UniformPattern
from repro.traffic.workloads import uniform_workload

from benchmarks.perf.spec import OUT_DIR, RUN_SECONDS
from benchmarks.perf.stats import self_times
from benchmarks.perf.trace import Tracer

DIMS = (8, 8)
TIMED_BACKENDS = ("active", "vectorized")
GATE_BACKENDS = ("reference", "active", "vectorized")
SETUP_SAMPLES = 5
WINDOW_CYCLES = 500


@dataclass(frozen=True)
class SimWorkload:
    protocol: str  # "clrp" | "wormhole"
    routing: str
    traffic: str  # "uniform" | "locality"
    load: float  # offered flits per node per cycle
    length: int  # flits per message
    injection_cycles: int  # at RUN_SECONDS; the run then drains


# Loads, lengths and mixes are the issue's; injection windows are sized
# so active + vectorized take about RUN_SECONDS together.
SIM_WORKLOADS = {
    "clrp_saturation": SimWorkload("clrp", "dor", "uniform", 0.6, 128, 32_000),
    "clrp_reuse": SimWorkload("clrp", "dor", "locality", 0.6, 256, 160_000),
    "wormhole_saturation": SimWorkload(
        "wormhole", "adaptive", "uniform", 0.6, 256, 4_000
    ),
}


def injection_cycles(w: SimWorkload, seconds: float) -> int:
    return max(WINDOW_CYCLES, round(w.injection_cycles * seconds / RUN_SECONDS))


def make_config(w: SimWorkload, seed: int, backend: str) -> NetworkConfig:
    if w.protocol == "wormhole":
        return NetworkConfig(
            dims=DIMS, protocol="wormhole", wave=None, seed=seed,
            wormhole=WormholeConfig(vcs=2, routing=w.routing),
            backend=backend,
        )
    return NetworkConfig(
        dims=DIMS, protocol=w.protocol, wave=WaveConfig(), seed=seed,
        wormhole=WormholeConfig(routing=w.routing), backend=backend,
    )


def make_traffic(w: SimWorkload, seed: int, injection: int, topology) -> list:
    """The generated input: a message list, a pure function of the seed."""
    rng = SimRandom(seed)
    if w.traffic == "locality":
        builder = LocalityWorkloadBuilder(
            topology, reuse=32, spatial_decay=0.5
        )
        return builder.build(
            MessageFactory(), offered_load=w.load, length=w.length,
            duration=injection, rng=rng,
        )
    return uniform_workload(
        MessageFactory(), UniformPattern(topology.num_nodes),
        num_nodes=topology.num_nodes, offered_load=w.load, length=w.length,
        duration=injection, rng=rng,
    )


def set_up(w: SimWorkload, seed: int, injection: int, backend: str):
    """Build one network and its traffic; returns their build times too."""
    start = perf_counter()
    net = Network(make_config(w, seed, backend))
    built = perf_counter()
    messages = make_traffic(w, seed, injection, net.topology)
    return net, messages, built - start, perf_counter() - built


def fingerprint(net: Network, result) -> dict:
    """Everything two backends (or a traced and an untraced run) must
    agree on; floats compare exactly, the simulation is deterministic."""
    stats = result.stats
    return {
        "cycles": result.cycles,
        "injected": result.injected,
        "delivered": result.delivered,
        "completed": result.completed,
        "work_counter": net.work_counter,
        "mean_latency": stats.mean_latency(),
        "counters": dict(sorted(stats.counters.items())),
    }


def simulate(net: Network, messages: list, injection: int):
    # Drain-to-completion: the cap only stops a run that stopped making
    # progress, which the caller then reports as a failed operation.
    sim = Simulator(net, messages)
    start = perf_counter()
    result = sim.run(injection * 50 + 100_000)
    return result, perf_counter() - start


# -- traced runs ----------------------------------------------------------


def instrument(net: Network, tracer: Tracer) -> dict:
    """Wrap this network's layer boundaries; returns the plane's
    occupancy sums (filled in as the run goes)."""
    tracer.wrap(net, "inject", "network.inject")
    for ni in net.interfaces:
        tracer.wrap(ni, "pre_cycle", "network.ni_pre_cycle")
    for router in net.routers:
        tracer.wrap(router, "route_phase", "wormhole.route_phase")
        tracer.wrap(router, "traversal_phase", "wormhole.traversal_phase")
    occupancy = {"probes": 0, "control_flits": 0, "transfers": 0}
    plane = net.plane
    if plane is not None:
        plane_step = plane.step
        cell = tracer.cell("circuits.plane_step")

        def traced_plane_step(cycle):
            # Objects this step will visit, counted where the work is.
            occupancy["probes"] += len(plane.probes)
            occupancy["control_flits"] += len(plane.control_flits)
            occupancy["transfers"] += len(plane.transfers)
            start = perf_counter()
            plane_step(cycle)
            cell[0] += perf_counter() - start
            cell[1] += 1

        plane.step = traced_plane_step
    return occupancy


STEP_CHILDREN = (
    "network.ni_pre_cycle", "circuits.plane_step", "wormhole.route_phase",
    "wormhole.traversal_phase", "network.vectorized_step",
)


def trace_steps(net: Network, tracer: Tracer, root: int):
    """Wrap ``net.step``: accumulate, and close one span per layer per
    WINDOW_CYCLES of simulated time under ``root``.

    A window's spans are aggregates -- a layer's busy time within the
    window laid end to end from the window's start -- since one span
    per call would be millions.  Returns the final flush.
    """
    inner = net.step
    step_cell = tracer.cell("network.step")
    names = ("network.step", "network.inject", *STEP_CHILDREN)
    seen = dict.fromkeys(names, 0.0)
    window_end = WINDOW_CYCLES
    window_start = perf_counter()
    core_wrapped = False

    def flush() -> None:
        nonlocal window_start
        delta = {}
        for name in names:
            total = tracer.seconds(name)
            delta[name] = total - seen[name]
            seen[name] = total
        at = window_start
        step_end = at + delta["network.step"]
        step = tracer.add_span("network.step", at, step_end, root)
        tracer.add_span(
            "network.inject", step_end, step_end + delta["network.inject"],
            root,
        )
        for name in STEP_CHILDREN:
            if delta[name]:
                tracer.add_span(name, at, at + delta[name], step)
                at += delta[name]
        window_start = perf_counter()

    def traced_step():
        nonlocal window_end, core_wrapped
        start = perf_counter()
        inner()
        step_cell[0] += perf_counter() - start
        step_cell[1] += 1
        if not core_wrapped and net._core is not None:
            # The vectorized core is built lazily inside the first
            # vectorized step; wrap it as soon as it exists.
            tracer.wrap(net._core, "step", "network.vectorized_step")
            core_wrapped = True
        if net.cycle >= window_end:
            flush()
            window_end = (net.cycle // WINDOW_CYCLES + 1) * WINDOW_CYCLES

    net.step = traced_step
    return flush


# -- one backend run ------------------------------------------------------


def run_backend(w: SimWorkload, seed: int, injection: int, backend: str,
                tracer: Tracer | None = None) -> dict:
    net, messages, network_s, traffic_s = set_up(w, seed, injection, backend)
    occupancy = None
    if tracer is None:
        result, wall = simulate(net, messages, injection)
    else:
        occupancy = instrument(net, tracer)
        with tracer.span("sim.run") as root:
            flush = trace_steps(net, tracer, root)
            result, wall = simulate(net, messages, injection)
            flush()
    return {
        "wall": wall,
        "network_s": network_s,
        "traffic_s": traffic_s,
        "fingerprint": fingerprint(net, result),
        "accepted": (
            sum(m.length for m in result.stats.delivered_records())
            / net.topology.num_nodes / result.cycles
        ),
        "occupancy": occupancy,
        "plane_work": net.plane.work_done if net.plane is not None else 0,
    }


def failed_ops(run: dict) -> int:
    fp = run["fingerprint"]
    return fp["injected"] - fp["delivered"] + (0 if fp["completed"] else 1)


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    w = SIM_WORKLOADS[name]
    injection = injection_cycles(w, seconds)
    problems: list[str] = []

    setups = []
    for i in range(SETUP_SAMPLES - len(TIMED_BACKENDS)):
        _, _, network_s, traffic_s = set_up(
            w, seed, injection, TIMED_BACKENDS[i % len(TIMED_BACKENDS)]
        )
        setups.append(network_s + traffic_s)
    runs = {b: run_backend(w, seed, injection, b) for b in TIMED_BACKENDS}
    setups += [r["network_s"] + r["traffic_s"] for r in runs.values()]
    active, vectorized = runs["active"], runs["vectorized"]
    if active["fingerprint"] != vectorized["fingerprint"]:
        problems.append("active and vectorized fingerprints differ")
    work = active["fingerprint"]["work_counter"]
    out = {
        "attempted": sum(r["fingerprint"]["injected"] for r in runs.values()),
        "failed": sum(failed_ops(r) for r in runs.values()),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "work_per_s": work / active["wall"],
            "alt_path_work_per_s": work / vectorized["wall"],
        },
        "fingerprint": active["fingerprint"],
        "problems": problems,
    }
    if traced:
        out["per_layer"] = trace_layers(name, w, seed, injection, runs, problems)
    return out


def trace_layers(name, w, seed, injection, untraced, problems) -> dict:
    tracers = {b: Tracer() for b in TIMED_BACKENDS}
    runs = {
        b: run_backend(w, seed, injection, b, tracers[b])
        for b in TIMED_BACKENDS
    }
    for b in TIMED_BACKENDS:
        if runs[b]["fingerprint"] != untraced[b]["fingerprint"]:
            problems.append(f"traced {b} fingerprint differs from untraced")
        tracers[b].dump(OUT_DIR / f"{name}-seed{seed}-{b}.spans.jsonl")
    active, tracer = runs["active"], tracers["active"]
    vec, vec_tracer = runs["vectorized"], tracers["vectorized"]
    self_s = self_times(tracer.spans)
    fp = active["fingerprint"]
    counters = fp["counters"]

    def count(name: str) -> int:
        return counters.get(name, 0)

    occ = active["occupancy"]
    visits = sum(occ.values())
    lookups = count("clrp.lookup_hit") + count("clrp.lookup_miss")
    steps = tracer.calls("network.step")
    return {
        "traffic.build_s": active["traffic_s"],
        "network.build_s": active["network_s"],
        "sim.run_s": active["wall"],
        "sim.vectorized_run_s": vec["wall"],
        "sim.cycles_per_s": fp["cycles"] / active["wall"],
        "sim.vectorized_cycles_per_s": fp["cycles"] / vec["wall"],
        "sim.loop_self_s": self_s["sim.run"],
        "sim.steps": steps,
        "sim.cycles_skipped": fp["cycles"] - steps,
        "sim.mean_latency_cycles": fp["mean_latency"],
        "sim.accepted_flits_per_node_cycle": active["accepted"],
        "network.inject_s": tracer.seconds("network.inject"),
        "network.inject_calls": tracer.calls("network.inject"),
        "network.step_self_s": self_s["network.step"],
        "network.ni_pre_cycle_s": tracer.seconds("network.ni_pre_cycle"),
        "network.ni_pre_cycle_calls": tracer.calls("network.ni_pre_cycle"),
        "network.work_counter": fp["work_counter"],
        "network.vectorized_step_s": vec_tracer.seconds("network.vectorized_step"),
        "network.vectorized_step_calls": vec_tracer.calls("network.vectorized_step"),
        "circuits.plane_step_s": tracer.seconds("circuits.plane_step"),
        "circuits.plane_step_calls": tracer.calls("circuits.plane_step"),
        "circuits.probe_cycles": occ["probes"],
        "circuits.control_flit_cycles": occ["control_flits"],
        "circuits.transfer_cycles": occ["transfers"],
        "circuits.work_done": active["plane_work"],
        "circuits.useful_work_ratio": _ratio(active["plane_work"], visits),
        "circuits.probes_launched": count("probe.launched"),
        "circuits.probe_hops": count("probe.hops"),
        "circuits.probe_backtracks": count("probe.backtracks"),
        "circuits.probe_success_ratio": _ratio(
            count("probe.succeeded"), count("probe.launched")
        ),
        "circuits.teardowns": count("circuit.teardowns"),
        "circuits.transfers_completed": count("wave.transfers_completed"),
        "core.circuit_hit_ratio": _ratio(count("clrp.lookup_hit"), lookups),
        "core.forced_establish_ratio": _ratio(
            count("clrp.phase2_entered"), count("circuit.established")
        ),
        "core.wormhole_fallbacks": (
            count("clrp.phase3_fallbacks")
            + count("clrp.cache_full_fallback")
        ),
        "wormhole.route_phase_s": tracer.seconds("wormhole.route_phase"),
        "wormhole.traversal_phase_s": tracer.seconds("wormhole.traversal_phase"),
        "wormhole.router_phase_calls": (
            tracer.calls("wormhole.route_phase")
            + tracer.calls("wormhole.traversal_phase")
        ),
        "trace.overhead_ratio": (
            sum(r["wall"] for r in runs.values())
            / sum(r["wall"] for r in untraced.values())
        ),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- the once-per-invocation gate -------------------------------------------


def gate(seed: int, seconds: float) -> list[str]:
    """Each sim workload at 1/8 injection on all three backends; the
    executable spec (``reference``) must match both fast cores exactly."""
    problems = []
    for name, w in SIM_WORKLOADS.items():
        injection = injection_cycles(w, seconds / 8)
        prints = {
            b: run_backend(w, seed, injection, b)["fingerprint"]
            for b in GATE_BACKENDS
        }
        for b in TIMED_BACKENDS:
            if prints[b] != prints["reference"]:
                problems.append(f"{name}: {b} differs from reference")
        if not prints["reference"]["completed"]:
            problems.append(f"{name}: reference run did not drain")
    return problems
