"""Experiment driver: one call per simulated configuration.

:func:`run_experiment` builds a network, drives a workload to completion
(or a cycle budget) and returns the measured metrics the benchmark
harness prints.  :func:`run_load_sweep` repeats over offered loads for
throughput/latency curves with saturation detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.network.network import Network
from repro.sim.config import NetworkConfig
from repro.sim.engine import SimulationResult, Simulator
from repro.topology.faults import FaultSet


@dataclass
class ExperimentResult:
    """Everything one configuration run yields."""

    label: str
    sim: SimulationResult
    mean_latency: float
    p95_latency: float
    throughput: float  # accepted flits/endpoint/cycle over the measured window
    delivered: int
    injected: int
    mode_breakdown: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.injected if self.injected else math.nan


def run_experiment(
    config: NetworkConfig,
    workload,
    *,
    label: str = "",
    max_cycles: int = 200_000,
    warmup: int = 0,
    deadlock_check_interval: int = 0,
    progress_timeout: int = 0,
    faults: FaultSet | None = None,
    network: Network | None = None,
    sampler=None,
    on_cycle=None,
) -> ExperimentResult:
    """Simulate one configuration against one workload.

    Args:
        warmup: messages delivered before this cycle are excluded from the
            throughput window (latency stats still include everything,
            matching common interconnect methodology for finite runs).
        network: pre-built network (for fault experiments needing a shared
            FaultSet built against the network's topology); otherwise one
            is built from ``config``.
        sampler: optional :class:`~repro.observe.metrics.NetworkSampler`
            passed through to the :class:`Simulator`.
        on_cycle: optional per-cycle callback passed through to the
            :class:`Simulator` (disables idle fast-forward; used by the
            fuzzing invariant harness).
    """
    net = network if network is not None else Network(config, faults=faults)
    sim = Simulator(
        net,
        workload,
        deadlock_check_interval=deadlock_check_interval,
        progress_timeout=progress_timeout,
        sampler=sampler,
        on_cycle=on_cycle,
    )
    result = sim.run(max_cycles)
    stats = net.stats
    delivered = stats.delivered_records()
    window_end = max((m.delivered for m in delivered), default=result.cycles)
    throughput_total = stats.throughput_flits_per_cycle(warmup, window_end + 1)
    # Per endpoint, like the offered load: on a MIN the switch nodes
    # neither inject nor accept traffic.
    per_node = (
        throughput_total / net.topology.num_endpoints
        if not math.isnan(throughput_total)
        else math.nan
    )
    hist = stats.latency_histogram()
    return ExperimentResult(
        label=label or config.describe(),
        sim=result,
        mean_latency=stats.mean_latency(),
        p95_latency=hist.percentile(95),
        throughput=per_node,
        delivered=len(delivered),
        injected=result.injected,
        mode_breakdown=stats.mode_breakdown(),
        counters=dict(stats.counters),
    )


def run_load_sweep(
    make_config,
    make_workload,
    loads,
    *,
    max_cycles: int = 100_000,
    warmup: int = 1000,
    label: str = "",
    jobs: int = 1,
    store=None,
    progress=None,
) -> list[tuple[float, ExperimentResult]]:
    """Sweep offered load; serially, stop early past saturation.

    Args:
        make_config: ``() -> NetworkConfig`` (fresh per point).
        make_workload: ``(load) -> workload list``.
        loads: offered loads (flits/node/cycle), ascending.
        jobs: worker processes (``repro.orchestrate``); ``1`` runs
            serially in-process.
        store: optional :class:`~repro.orchestrate.store.ResultStore`
            for caching/resume (routes execution through the
            orchestrator even when ``jobs == 1``).
        progress: optional orchestrator progress callback.

    Serially, a point is *saturated* when fewer than 90% of injected
    messages were delivered within the cycle budget; the sweep runs one
    saturated point (to show the knee) and then stops.  With ``jobs > 1``
    or a ``store``, all points run (there is no serial knee to cut at)
    through :func:`repro.orchestrate.run_jobs`: results are merged in
    job order and are bit-identical to a serial run; failed points are
    omitted from the returned list (their failure records live in the
    store / progress events).
    """
    if jobs <= 1 and store is None and progress is None:
        out: list[tuple[float, ExperimentResult]] = []
        for load in loads:
            config = make_config()
            workload = make_workload(load)
            result = run_experiment(
                config,
                workload,
                label=f"{label}@{load:g}",
                max_cycles=max_cycles,
                warmup=warmup,
            )
            out.append((load, result))
            if result.injected and result.delivery_ratio < 0.9:
                break
        return out

    from repro.orchestrate import (
        materialize_spec,
        metrics_to_experiment_result,
        run_jobs,
    )

    specs = [
        materialize_spec(
            make_config(),
            make_workload(load),
            label=f"{label}@{load:g}",
            max_cycles=max_cycles,
            warmup=warmup,
        )
        for load in loads
    ]
    outcomes = run_jobs(specs, jobs=jobs, store=store, progress=progress)
    return [
        (load, metrics_to_experiment_result(outcome.metrics))
        for load, outcome in zip(loads, outcomes)
        if outcome.ok
    ]


def find_saturation_load(
    make_config,
    make_workload,
    *,
    lo: float = 0.02,
    hi: float = 1.0,
    tolerance: float = 0.02,
    max_cycles: int = 60_000,
    delivery_threshold: float = 0.95,
    store=None,
) -> float:
    """Binary-search the saturation point of a configuration.

    A load is *sustainable* when at least ``delivery_threshold`` of the
    injected messages drain within the cycle budget.  Returns the highest
    sustainable load found, to within ``tolerance``.

    Probes execute through the orchestrator (serially -- the search is
    inherently sequential), so passing a ``store`` caches each probed
    load: repeating or refining a search re-simulates only new probes.

    Args:
        make_config: ``() -> NetworkConfig`` (fresh per probe).
        make_workload: ``(load) -> workload list``.
        store: optional :class:`~repro.orchestrate.store.ResultStore`.
    """
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")

    from repro.orchestrate import materialize_spec, run_jobs

    def sustainable(load: float) -> bool:
        spec = materialize_spec(
            make_config(),
            make_workload(load),
            label=f"saturation@{load:g}",
            max_cycles=max_cycles,
        )
        [outcome] = run_jobs([spec], jobs=1, store=store)
        if not outcome.ok:
            raise SimulationError(
                f"saturation probe at load {load:g} failed: "
                f"{outcome.failure['message']}"
            )
        metrics = outcome.metrics
        if metrics["injected"] == 0:
            return True
        return (
            metrics["delivered"] / metrics["injected"] >= delivery_threshold
        )

    if not sustainable(lo):
        return 0.0
    if sustainable(hi):
        return hi
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if sustainable(mid):
            lo = mid
        else:
            hi = mid
    return lo


def run_seed_sweep(
    make_config,
    make_workload,
    seeds,
    *,
    max_cycles: int = 100_000,
    label: str = "",
    jobs: int = 1,
    store=None,
    progress=None,
) -> dict:
    """Repeat one experiment across seeds; report mean and spread.

    Args:
        make_config: ``(seed) -> NetworkConfig``.
        make_workload: ``(seed) -> workload list``.
        jobs: worker processes (``repro.orchestrate``); ``1`` = serial.
        store: optional result store for caching/resume.
        progress: optional orchestrator progress callback.

    Returns a dict with per-seed results plus ``latency_mean`` /
    ``latency_std`` / ``throughput_mean`` / ``throughput_std`` over the
    delivered runs -- the error bars for any headline number.  Seed
    replications are independent, so this parallelises embarrassingly;
    merged results keep seed order regardless of completion order.
    """
    if jobs <= 1 and store is None and progress is None:
        results = []
        for seed in seeds:
            results.append(
                run_experiment(
                    make_config(seed),
                    make_workload(seed),
                    label=f"{label}#{seed}",
                    max_cycles=max_cycles,
                )
            )
    else:
        from repro.orchestrate import (
            materialize_spec,
            metrics_to_experiment_result,
            run_jobs,
        )

        specs = [
            materialize_spec(
                make_config(seed),
                make_workload(seed),
                label=f"{label}#{seed}",
                max_cycles=max_cycles,
            )
            for seed in seeds
        ]
        outcomes = run_jobs(specs, jobs=jobs, store=store, progress=progress)
        results = [
            metrics_to_experiment_result(outcome.metrics)
            for outcome in outcomes
            if outcome.ok
        ]

    def _mean(xs):
        return sum(xs) / len(xs) if xs else math.nan

    def _std(xs):
        if len(xs) < 2:
            return 0.0
        m = _mean(xs)
        return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))

    latencies = [r.mean_latency for r in results if not math.isnan(r.mean_latency)]
    throughputs = [r.throughput for r in results if not math.isnan(r.throughput)]
    return {
        "results": results,
        "latency_mean": _mean(latencies),
        "latency_std": _std(latencies),
        "throughput_mean": _mean(throughputs),
        "throughput_std": _std(throughputs),
    }
