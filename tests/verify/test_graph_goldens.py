"""Frozen dependency graphs: the one walker against the five it replaced.

``tests/corpus/cdg_graph_goldens.json`` was written at commit 265d973 by
``tests/corpus/gen_cdg_graph_goldens.py`` from the hand-written walkers
of that commit (``_walk_deterministic``, ``_walk_adaptive_escape``,
``_union_walk``, ``build_extended_cdg``, ``subfunction_connected``).
Every graph :func:`walk_dependencies` builds -- the designated
discipline, the union graph and each candidate subfunction's extended
graph -- must hash to the same edge set, with the same connectivity
verdict.  Never regenerate the file to make a walker change pass.

The file's ``slow`` flags date from the per-pair walker; with states
memoised per destination the two large entries (8x8 adaptive torus,
12x12 mesh) take under a second together, so every entry runs in
tier-1 and the flags are ignored.
"""

import json
from pathlib import Path

import pytest

from repro.sim.config import NetworkConfig, WaveConfig, WormholeConfig
from repro.verify.cdg import (
    FullRelation,
    analysed_classes,
    build_cdg,
    candidate_subfunctions,
    config_topology,
    walk_dependencies,
)
from repro.verify.smt import certificate_slug, graph_fingerprint
from repro.wormhole.routing import AdaptiveRouting, make_routing

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "corpus"
     / "cdg_graph_goldens.json").read_text(encoding="utf-8")
)


def _config(entry):
    cfg = entry["config"]
    return NetworkConfig(
        topology=cfg["topology"], dims=tuple(cfg["dims"]),
        protocol=cfg["protocol"],
        wave=None if cfg["protocol"] == "wormhole" else WaveConfig(),
        wormhole=WormholeConfig(vcs=cfg["vcs"], routing=cfg["routing"]),
    )


def _id(entry):
    return certificate_slug(_config(entry), entry["assume_classes"])


@pytest.mark.parametrize("entry", GOLDENS, ids=_id)
def test_walker_reproduces_parent_graphs(entry):
    config = _config(entry)
    topology = config_topology(config)
    routing = make_routing(
        config.wormhole.routing, topology, config.wormhole.vcs
    )
    assume = entry["assume_classes"]
    num_classes = analysed_classes(routing, assume)

    designated = build_cdg(topology, routing, assume_classes=assume)
    assert graph_fingerprint(designated) == entry["designated"]

    # The old union builder returned the plain CDG for deterministic
    # routing: there the full relation *is* the designated discipline.
    union = designated
    if isinstance(routing, AdaptiveRouting):
        union, _ = walk_dependencies(
            routing, FullRelation(routing, num_classes)
        )
    assert graph_fingerprint(union) == entry["union"]

    candidates = candidate_subfunctions(routing, num_classes)
    assert sorted(sub.name for sub in candidates) == sorted(
        entry["candidates"]
    )
    for sub in candidates:
        edges, connected = walk_dependencies(routing, sub)
        assert dict(
            graph_fingerprint(edges), connected=connected
        ) == entry["candidates"][sub.name], sub.name


def test_goldens_cover_every_shipped_config():
    from repro.cli import _shipped_verify_configs

    covered = {_id(entry) for entry in GOLDENS}
    for config in _shipped_verify_configs():
        assert certificate_slug(config) in covered
