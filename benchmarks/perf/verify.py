"""``verify_ladder``: both CDG deciders on three frozen large configs.

The configs never change with ``--seed`` (sizes are frozen so numbers
stay comparable); the seed only shuffles the order they are decided in.
``--seconds`` scales how many times the ladder is climbed; a run shorter
than one climb takes the cheapest rungs only, never smaller ones.  z3
is never used: ``engine="native"`` keeps the numbers independent of the
optional extra.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from repro.sim.config import NetworkConfig, WaveConfig, WormholeConfig
from repro.verify import (
    analyze_config,
    build_cdg,
    check_certificate,
    find_cycle,
    verify_config,
)
from repro.verify.cdg import config_topology
from repro.verify.smt import solve_ranks
from repro.wormhole.routing import make_routing

from benchmarks.perf.spec import RUN_SECONDS

SETUP_SAMPLES = 25  # ~0.1 ms each: many, so their median is steady
# One climb (search + SMT over the three rungs) takes ~5.7 s on the
# baseline sandbox; one climb per RUN_SECONDS leaves room for the
# certificate replay that checks it.
CLIMBS = 1

# Dearest first: ~60%, ~29% and ~11% of a climb.
LADDER = (
    ("torus", (8, 8), "adaptive", 3, "clrp"),
    ("mesh", (12, 12), "dor", 2, "clrp"),
    ("hypercube", (2,) * 7, "dor", 2, "wormhole"),
)


def rungs(seconds: float) -> tuple:
    share = seconds / RUN_SECONDS
    return LADDER if share >= 1 else LADDER[1:] if share >= 0.4 else LADDER[2:]


def build_configs(seconds: float) -> list[NetworkConfig]:
    return [
        NetworkConfig(
            topology=topology, dims=dims, protocol=protocol,
            wormhole=WormholeConfig(vcs=vcs, routing=routing),
            wave=None if protocol == "wormhole" else WaveConfig(),
        )
        for topology, dims, routing, vcs, protocol in rungs(seconds)
    ]


def set_up(seed: int, seconds: float) -> tuple[list[NetworkConfig], float]:
    """Config and topology construction, in the seed's order."""
    start = perf_counter()
    configs = build_configs(seconds)
    random.Random(seed).shuffle(configs)
    for config in configs:
        config_topology(config)
    return configs, perf_counter() - start


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    climbs = max(1, round(CLIMBS * seconds / RUN_SECONDS))
    setups = []
    for _ in range(SETUP_SAMPLES):
        configs, setup_s = set_up(seed, seconds)
        setups.append(setup_s)

    search_s = smt_s = replay_s = 0.0
    failed = 0
    verdicts = []
    for _ in range(climbs):
        for config in configs:
            start = perf_counter()
            search = analyze_config(config)
            mid = perf_counter()
            smt = verify_config(config, engine="native")
            end = perf_counter()
            search_s += mid - start
            smt_s += end - mid
            replay = check_certificate(smt.certificate)
            replay_s += perf_counter() - end
            # One failed operation per decider that is wrong: every rung
            # is deadlock-free, the two must agree, and the certificate
            # must replay against the current code.
            failed += 0 if search.ok else 1
            failed += 0 if smt.deadlock_free and replay.ok else 1
            verdicts.append({
                "config": config.describe(),
                "search_acyclic": search.acyclic,
                "smt": smt.method,
                "graph": smt.certificate["graph"]["sha256"],
                "channels": search.num_channels,
                "dependencies": search.num_deps,
            })
    decided = climbs * len(configs)
    out = {
        "attempted": 2 * decided,
        "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "work_per_s": decided / search_s,
            "alt_path_work_per_s": decided / smt_s,
        },
        "fingerprint": sorted(verdicts, key=lambda v: v["config"]),
        "problems": [],
    }
    if traced:
        out["per_layer"] = {
            "verify.search_s": search_s,
            "verify.smt_s": smt_s,
            "verify.replay_s": replay_s,
            "verify.channels": sum(v["channels"] for v in verdicts),
            "verify.dependencies": sum(v["dependencies"] for v in verdicts),
            # Nothing to wrap here: the run above already times the
            # public entry points, and the pass below calls the public
            # graph functions under them directly.
            "trace.overhead_ratio": 1.0,
            **graph_pass(configs),
        }
    return out


def graph_pass(configs: list[NetworkConfig]) -> dict:
    """The deciders' shared building blocks, called stand-alone: build
    the search's dependency graph, find a cycle in it, rank it."""
    build_s = cycle_s = ranks_s = 0.0
    for config in configs:
        topology = config_topology(config)
        routing = make_routing(
            config.wormhole.routing, topology, config.wormhole.vcs
        )
        start = perf_counter()
        edges = build_cdg(topology, routing)
        built = perf_counter()
        find_cycle(edges)
        searched = perf_counter()
        solve_ranks(edges, "native")
        build_s += built - start
        cycle_s += searched - built
        ranks_s += perf_counter() - searched
    return {
        "verify.build_cdg_s": build_s,
        "verify.find_cycle_s": cycle_s,
        "verify.solve_ranks_s": ranks_s,
    }
