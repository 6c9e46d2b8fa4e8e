"""Writes ``cdg_graph_goldens.json`` from the five pre-collapse walkers.

Run **at commit 265d973 only**, the last one that carries
``_walk_deterministic``, ``_walk_adaptive_escape``, ``_union_walk``,
``build_extended_cdg`` and ``subfunction_connected``::

    PYTHONPATH=src python tests/corpus/gen_cdg_graph_goldens.py

The names imported below no longer exist afterwards; the script stays
in the tree as the record of how the goldens were produced.
``tests/verify/test_graph_goldens.py`` replays the file against the one
walker that replaced them.  Regenerate only for a deliberate change of
the routing discipline, never to make a walker change pass.
"""

import json
from pathlib import Path

from repro.cli import _shipped_verify_configs
from repro.sim.config import NetworkConfig, WaveConfig, WormholeConfig
from repro.verify.cdg import build_cdg, config_topology
from repro.verify.smt import (
    build_extended_cdg,
    build_union_cdg,
    candidate_subfunctions,
    graph_fingerprint,
    subfunction_connected,
)
from repro.wormhole.routing import make_routing

OUT = Path(__file__).resolve().parent / "cdg_graph_goldens.json"


def _config(topology, dims, routing="dor", vcs=2, protocol="wormhole"):
    return NetworkConfig(
        topology=topology, dims=dims, protocol=protocol,
        wormhole=WormholeConfig(vcs=vcs, routing=routing),
        wave=None if protocol == "wormhole" else WaveConfig(),
    )


def cases():
    """(config, assume_classes, slow) for every golden."""
    for config in _shipped_verify_configs():
        yield config, None, False
    # The two --assume-classes 1 demos CI runs: the torus ring cycle and
    # the ring-split over-approximation.
    yield _config("torus", (4, 4)), 1, False
    yield _config("torus", (4,), "adaptive", 3), 1, False
    # Dateline-free adaptive rings the whole family rejects (odd and
    # even radix, one and two dimensions).
    for dims in ((5,), (6,), (7,), (5, 4)):
        yield _config("torus", dims, "adaptive", 3), 1, False
    # benchmarks/perf's verify_ladder rungs.
    yield _config("torus", (8, 8), "adaptive", 3, "clrp"), None, True
    yield _config("mesh", (12, 12), protocol="clrp"), None, True
    yield _config("hypercube", (2,) * 7), None, False


def golden(config, assume_classes):
    topology = config_topology(config)
    routing = make_routing(
        config.wormhole.routing, topology, config.wormhole.vcs
    )
    num_classes = (
        routing.num_classes if assume_classes is None else assume_classes
    )
    return {
        "designated": graph_fingerprint(
            build_cdg(topology, routing, assume_classes=assume_classes)
        ),
        "union": graph_fingerprint(
            build_union_cdg(routing, assume_classes=assume_classes)
        ),
        "candidates": {
            sub.name: dict(
                graph_fingerprint(build_extended_cdg(
                    routing, sub, assume_classes=assume_classes
                )),
                connected=subfunction_connected(routing, sub),
            )
            for sub in candidate_subfunctions(routing, num_classes)
        },
    }


def main():
    entries = []
    for config, assume_classes, slow in cases():
        entries.append({
            "config": {
                "topology": config.topology,
                "dims": list(config.dims),
                "protocol": config.protocol,
                "routing": config.wormhole.routing,
                "vcs": config.wormhole.vcs,
            },
            "assume_classes": assume_classes,
            "slow": slow,
            **golden(config, assume_classes),
        })
    OUT.write_text(
        json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(entries)} goldens to {OUT}")


if __name__ == "__main__":
    main()
