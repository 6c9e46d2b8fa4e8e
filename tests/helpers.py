"""Shared test harnesses.

``build_plane`` wires a :class:`~repro.circuits.plane.WavePlane` over a
small topology with :class:`StubEngine` callbacks per node, so circuit
mechanics can be unit-tested without the full network stack.
``replay_cli`` runs one CLI invocation in a scratch directory and
captures everything it leaves behind, for the frozen CLI goldens.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from pathlib import Path

from repro.circuits.plane import WavePlane
from repro.cli import main
from repro.orchestrate import open_store
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


# batch progress lines carry per-job wall-clock seconds.
_WALL_CLOCK = re.compile(r"\(\d+\.\d+s\)")


def replay_cli(argv, files, store, workdir) -> dict:
    """Run the CLI's ``main(argv)`` inside ``workdir``; capture the outcome.

    ``files`` (name -> text) are written first; ``store`` names the
    result store the invocation writes, or None.  Returns the exit code,
    stdout and stderr with wall-clock figures masked and, for a store,
    each record's canonical metrics JSON by key.  Relative paths keep
    every printed path identical across machines.
    """
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in files.items():
            Path(name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        got = {
            "exit": code,
            "stdout": _WALL_CLOCK.sub("(#s)", out.getvalue()),
            "stderr": err.getvalue(),
        }
        if store is not None:
            opened = open_store(store)
            got["store"] = {
                record["key"]: json.dumps(record["metrics"], sort_keys=True)
                for record in opened.records()
            }
            opened.close()
        return got
    finally:
        os.chdir(previous)
