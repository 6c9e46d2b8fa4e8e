"""Golden differential for the probe walk off the mesh.

``plane_goldens.json`` is mesh only, and what the MB-m walk reads
differs most elsewhere: a torus tie makes ``minimal_ports`` return both
directions of a ring, a MIN's stage links have no ``return_port``, a
fullmesh circuit is one hop, a hypercube node has n ports.  This file
pins the same observables as :mod:`tests.integration.test_plane_goldens`
(whose scenario runner it shares) on those four families, against
``tests/corpus/plane_topology_goldens.json``, written by running this
file as a script **with the sources of commit d15a9b2**, the last one
whose ``Probe.step`` scanned ``topology.connected_ports`` through
``first_free`` / ``victim_candidates`` on every hop (from a clone of
that commit, with this checkout on the path for ``tests`` only)::

    cd <clone of d15a9b2> && PYTHONPATH=src:<this checkout> \
        python <this checkout>/tests/integration/test_plane_topology_goldens.py

Regenerate only for a deliberate model change, never to make a plane
optimisation pass (``tests/corpus/SHA256SUMS`` is checked in CI).
"""

import json
from pathlib import Path

import pytest

from tests.integration.test_plane_goldens import (
    BACKENDS,
    Scenario,
    load_goldens,
    run_scenario,
    write_goldens,
)

GOLDENS = (
    Path(__file__).resolve().parent.parent / "corpus"
    / "plane_topology_goldens.json"
)

SCENARIOS = {
    "clrp_torus_4x4": Scenario(topology="torus", length=64),
    "clrp_hypercube_16": Scenario(
        topology="hypercube", dims=(2, 2, 2, 2), length=64
    ),
    # One hop, one dedicated link per pair: every probe succeeds at once.
    "clrp_fullmesh_8": Scenario(topology="fullmesh", dims=(8,), length=64),
    "clrp_min_2x2x2": Scenario(topology="min", dims=(2, 2, 2), length=64),
    # Links die under probes and circuits.  On the torus the retried
    # probe searches around the fault through ring ties; on the fullmesh
    # a dead direct link is the only way a probe ever misroutes (two
    # hops through a third node) and so the only way it meets another
    # circuit; on the MIN a dead stage link leaves no U-turn to exclude.
    "clrp_torus_4x4_faults": Scenario(
        topology="torus", length=96, duration=3_000, wire_delay=5,
        fault_mtbf=80,
    ),
    "clrp_fullmesh_8_faults": Scenario(
        topology="fullmesh", dims=(8,), load=0.9, length=64,
        duration=3_000, fault_mtbf=40,
    ),
    "clrp_min_2x2x2_faults": Scenario(
        topology="min", dims=(2, 2, 2), length=64, duration=3_000,
        fault_mtbf=60,
    ),
}

# The probe outcomes a replay must reach to say anything about the walk.
SEARCH_COUNTERS = (
    "probe.backtracks", "probe.misroutes", "probe.waits",
    "probe.force_backtracks",
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_plane_topology_golden_replays(name, backend):
    assert run_scenario(SCENARIOS[name], backend) == load_goldens(GOLDENS)[name]


def test_goldens_were_written_before_the_walk_changed():
    assert json.loads(GOLDENS.read_text())["generated_at_commit"] == "d15a9b2"


def test_goldens_reach_every_probe_outcome():
    goldens = load_goldens(GOLDENS)
    assert sorted(goldens) == sorted(SCENARIOS)
    for name, golden in goldens.items():
        counters = golden["counters"]
        assert counters["wave.transfers_completed"] > 20, name
        if name == "clrp_fullmesh_8":
            # The topology allows none of them without a fault.
            assert not any(counters.get(c) for c in SEARCH_COUNTERS)
            continue
        for counter in SEARCH_COUNTERS:
            assert counters.get(counter, 0) > 0, (name, counter)
        if name.endswith("_faults"):
            assert counters["probe.fault_aborts"] > 0, name
            assert counters["circuit.fault_teardowns"] > 0, name


if __name__ == "__main__":
    write_goldens(GOLDENS, SCENARIOS)
