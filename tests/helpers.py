"""Shared test harnesses.

``build_plane`` wires a :class:`~repro.circuits.plane.WavePlane` over a
small topology with :class:`StubEngine` callbacks per node, so circuit
mechanics can be unit-tested without the full network stack.
"""

from __future__ import annotations

from repro.circuits.plane import WavePlane
from repro.sim.config import WaveConfig
from repro.sim.stats import StatsCollector
from repro.topology import Mesh


class StubEngine:
    """Records every plane callback; optionally auto-releases circuits."""

    def __init__(self, plane: WavePlane, node: int) -> None:
        self.plane = plane
        self.node = node
        self.established = []
        self.failed = []
        self.release_requests = []
        self.released = []
        self.transfers_done = []
        self.faults = []
        self.auto_release = True  # honour release requests immediately

    def circuit_established(self, circuit, cycle):
        self.established.append((circuit, cycle))

    def probe_failed(self, probe, circuit, cycle):
        self.failed.append((probe, circuit, cycle))

    def release_requested(self, circuit, cycle):
        self.release_requests.append((circuit, cycle))
        if self.auto_release and not circuit.in_use:
            self.plane.start_teardown(circuit, cycle)

    def circuit_released(self, circuit, cycle):
        self.released.append((circuit, cycle))

    def transfer_completed(self, transfer, cycle):
        self.transfers_done.append((transfer, cycle))

    def circuit_fault(self, circuit, cycle):
        self.faults.append((circuit, cycle))


def build_plane(dims=(4, 4), **wave_kwargs):
    """A WavePlane over a mesh with stub engines on every node."""
    topo = Mesh(dims)
    config = WaveConfig(**wave_kwargs)
    stats = StatsCollector()
    plane = WavePlane(topo, config, stats)
    engines = []
    for n in range(topo.num_nodes):
        engine = StubEngine(plane, n)
        plane.register_engine(n, engine)
        engines.append(engine)
    return topo, plane, engines, stats


def run_plane(plane, start: int, cycles: int) -> int:
    for cycle in range(start, start + cycles):
        plane.step(cycle)
    return start + cycles


def run_until_idle(plane, start: int, limit: int = 10_000) -> int:
    cycle = start
    while not plane.is_idle():
        plane.step(cycle)
        cycle += 1
        if cycle - start > limit:
            raise AssertionError(f"plane not idle after {limit} cycles")
    return cycle
