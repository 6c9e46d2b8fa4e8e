"""Executing one JobSpec: the unit of work a pool worker performs.

:func:`prepare_job` followed by :meth:`PreparedJob.run` is the *only*
path from a spec to a result.  :func:`execute_job` is the two back to
back -- the serial ``jobs=1`` degenerate case and every pool worker call
it, which is what makes the parallel/serial bit-identical equivalence a
structural property rather than a test hope.  It returns a plain
JSON-serialisable metrics dict (picklable across the process boundary,
storable in the JSONL result store).

The split exists for callers that need the live
:class:`~repro.network.network.Network` around the run: ``repro run`` /
``trace`` / ``heatmap`` attach a tracer before it and render link loads
and latency tables from it afterwards, on exactly the machine, traffic
and faults a worker would have built.

``run_experiment`` is resolved late (module attribute lookup at call
time) so tests that monkeypatch
``repro.analysis.experiments.run_experiment`` intercept orchestrated
runs too.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis import experiments as _experiments
from repro.errors import BackendDivergence, ConfigError
from repro.network.network import Network
from repro.observe.metrics import NetworkSampler
from repro.orchestrate.recipes import build_workload
from repro.orchestrate.spec import JobSpec
from repro.sim.engine import SimulationResult
from repro.sim.stats import StatsCollector
from repro.topology import FaultSchedule, FaultSet, build_topology
from repro.topology.faults import derive_fault_rng
from repro.traffic.compiler import compile_directives
from repro.verify import (
    check_all_invariants,
    check_fault_isolation,
    teardown_latency,
)

if TYPE_CHECKING:  # verify.fuzz imports the pool, which imports this module
    from repro.verify.fuzz import InvariantHarness


@dataclass
class PreparedJob:
    """Everything a spec describes, built and wired but not yet run."""

    spec: JobSpec
    items: list
    faults: FaultSet | None
    network: Network
    sampler: NetworkSampler | None
    harness: InvariantHarness | None

    def run(self) -> "_experiments.ExperimentResult":
        """Simulate to completion, then audit the network's end state."""
        spec, net, harness = self.spec, self.network, self.harness
        result = _experiments.run_experiment(
            spec.config,
            self.items,
            label=spec.label,
            max_cycles=spec.max_cycles,
            warmup=spec.warmup,
            deadlock_check_interval=spec.deadlock_check_interval,
            progress_timeout=spec.progress_timeout,
            network=net,
            sampler=self.sampler,
            on_cycle=harness.on_cycle if harness is not None else None,
        )
        if harness is not None:
            harness.finish(result)
        # Every run ends with a structural audit: the distributed
        # register state must be coherent, and -- once the last kill's
        # teardowns have had time to settle -- nothing live may still
        # reference a dead link.
        check_all_invariants(net)
        if isinstance(self.faults, FaultSchedule) and net.cycle >= (
            self.faults.last_kill_cycle + teardown_latency(net)
        ):
            check_fault_isolation(net)
        return result

    def metrics(self, result) -> dict:
        """The job's storable metrics dict for a finished :meth:`run`."""
        metrics = result_to_metrics(result)
        if self.harness is not None:
            metrics["invariants"] = {
                "every": self.spec.invariants_every,
                "checks": self.harness.checks_run,
            }
        if self.sampler is not None:
            # Per-job metric summary rides with the result into the
            # store; the full time series stays in the worker (summaries
            # are small and JSON-able, series are not worth a
            # process-boundary copy).
            metrics["observe"] = {
                "every": self.spec.metrics_every,
                "samples": self.sampler.samples_taken,
                "series": self.sampler.registry.summary(),
            }
        return metrics


def prepare_job(spec: JobSpec, *, faults: FaultSet | None = None) -> PreparedJob:
    """Build the spec's traffic, fault set, network and instruments.

    Args:
        faults: an explicit fault set or schedule (``--fault-schedule``)
            standing in for the seeded campaign ``spec.mtbf`` would
            derive; ``spec.fault_fraction`` still layers onto it.
    """
    config = spec.config
    if faults is not None and spec.mtbf:
        raise ConfigError("--mtbf and --fault-schedule are mutually exclusive")
    topology = build_topology(config.topology, config.dims)
    items = build_workload(spec, topology)
    if config.protocol == "carp":
        items, _report = compile_directives(items)
    if spec.mtbf:
        faults = FaultSchedule.random_campaign(
            topology,
            mtbf=spec.mtbf,
            mttr=spec.mttr,
            horizon=spec.max_cycles,
            rng=derive_fault_rng(config.seed),
        )
    if spec.fault_fraction:
        if faults is None:
            faults = FaultSet(topology)
        # The static fraction layers onto the same fault set; the
        # connectivity guard in fail_random_links sees links already
        # dead at cycle 0 but not future scheduled kills.
        faults.fail_random_links(
            spec.fault_fraction, derive_fault_rng(config.seed)
        )
    net = Network(config, faults=faults)
    sampler = None
    if spec.metrics_every:
        sampler = NetworkSampler(net, spec.metrics_every)
    harness = None
    if spec.invariants_every:
        from repro.verify.fuzz import InvariantHarness

        harness = InvariantHarness(net, every=spec.invariants_every)
    return PreparedJob(spec, items, faults, net, sampler, harness)


def execute_job(spec: JobSpec) -> dict:
    """Run one spec to completion and return its metrics dict.

    A spec with ``invariants_every`` set (every fuzz scenario) is also a
    differential test: unless it already names ``reference``, the same
    spec runs again on ``Network.step_reference`` and every observable
    -- the metrics dict (final cycle and stats counters included), the
    work counter, and the harness's hash of the per-cycle work counter
    (``work_trajectory``: the same total reached in different cycles)
    -- must be equal, else :class:`BackendDivergence` names the first key
    that differs.  The second run happens inside the
    job because ``JobSpec.key()`` excludes ``backend``: a separate
    reference job would be a cache hit on this one.

    Both cores drive the same wave plane, so a bug inside the plane
    cannot show up here; the plane goldens
    (``tests/corpus/plane_goldens.json``) cover that.
    """
    job = prepare_job(spec)
    metrics = job.metrics(job.run())
    backend = spec.config.backend
    if spec.invariants_every and backend != "reference":
        ref = prepare_job(dataclasses.replace(
            spec, config=dataclasses.replace(spec.config, backend="reference")
        ))
        expected = ref.metrics(ref.run())
        where = first_difference(
            {**metrics, "work_counter": job.network.work_counter,
             "work_trajectory": job.harness.work_trajectory},
            {**expected, "work_counter": ref.network.work_counter,
             "work_trajectory": ref.harness.work_trajectory},
        )
        if where is not None:
            key, got, want = where
            raise BackendDivergence(
                f"{key} is {got!r} on {backend} but {want!r} on reference"
            )
    return metrics


def first_difference(got: dict, want: dict, prefix: str = ""):
    """``(dotted key, got, want)`` for the first (in sorted key order)
    leaf where two nested dicts differ, or None when they are equal.

    Leaves compare by ``repr``: floats round-trip exactly through it, and
    a NaN latency equals itself.
    """
    missing = "<missing>"
    for key in sorted(set(got) | set(want), key=str):
        a, b = got.get(key, missing), want.get(key, missing)
        if isinstance(a, dict) and isinstance(b, dict):
            found = first_difference(a, b, f"{prefix}{key}.")
            if found is not None:
                return found
        elif repr(a) != repr(b):
            return f"{prefix}{key}", a, b
    return None


def result_to_metrics(result) -> dict:
    """Flatten an ExperimentResult into plain JSON-able data.

    Floats survive both pickling and JSON round-trips exactly (repr-based
    encoding), so cached metrics stay bit-identical to fresh ones.
    """
    return {
        "label": result.label,
        "mean_latency": result.mean_latency,
        "p95_latency": result.p95_latency,
        "throughput": result.throughput,
        "delivered": result.delivered,
        "injected": result.injected,
        "mode_breakdown": dict(result.mode_breakdown),
        "counters": dict(result.counters),
        "cycles": result.sim.cycles,
        "completed": result.sim.completed,
    }


def metrics_to_experiment_result(metrics: dict):
    """Rebuild an ExperimentResult view over a worker's metrics dict.

    The embedded :class:`SimulationResult` carries the run's scalar
    outcome (cycles, completion, counts) but an *empty* StatsCollector:
    per-message records stay in the worker.  All headline fields
    (latency, throughput, breakdowns, counters) are exact.
    """
    sim = SimulationResult(
        cycles=metrics["cycles"],
        stats=StatsCollector(),
        completed=metrics["completed"],
        injected=metrics["injected"],
        delivered=metrics["delivered"],
    )
    return _experiments.ExperimentResult(
        label=metrics["label"],
        sim=sim,
        mean_latency=metrics["mean_latency"],
        p95_latency=metrics["p95_latency"],
        throughput=metrics["throughput"],
        delivered=metrics["delivered"],
        injected=metrics["injected"],
        mode_breakdown=dict(metrics["mode_breakdown"]),
        counters=dict(metrics["counters"]),
    )


def delivery_ratio(metrics: dict) -> float:
    """Delivered/injected from a metrics dict (NaN when nothing injected)."""
    injected = metrics["injected"]
    return metrics["delivered"] / injected if injected else math.nan
