"""Property-based protocol fuzzing with failure shrinking.

The paper proves CLRP/CARP deadlock- and livelock-free; the curated test
suite spot-checks those theorems on hand-picked scenarios.  This module
explores the protocol state space mechanically:

* :func:`generate_spec` draws a randomized scenario -- topology, traffic
  pattern and load, protocol and variant, cache size, replacement
  policy, faults, seeds -- from a seeded :class:`~repro.sim.rng.SimRandom`
  stream, as a plain :class:`~repro.orchestrate.spec.JobSpec`.  Fuzz jobs
  are ordinary jobs, so the orchestration pool, result store and resume
  machinery all apply unchanged.

* :class:`InvariantHarness` rides the simulator's ``on_cycle`` hook and
  checks, every ``invariants_every`` cycles: the structural invariants
  (channel exclusivity, register/table consistency, credit sanity), the
  activity ledger (flit and pending-count conservation), cache-entry
  state-machine legality including per-phase switch budgets, probe/ack
  pairing against the circuit table, and the wait-graph deadlock
  detector.  At end of run it audits delivered-or-reported: every
  injected message must be delivered, dropped-with-reason, lost to a
  recorded fault, or a recorded delivery failure -- never silently gone.

* Every scenario is differential: specs carry ``invariants_every``, so
  :func:`~repro.orchestrate.runner.execute_job` runs each one on the
  fast stepping core and again on ``step_reference`` and raises
  :class:`~repro.errors.BackendDivergence` on the first observable that
  differs, the harness's rolling hash of the per-cycle work counter
  included.  A wave-plane bug moves both runs alike and is not caught
  this way; the plane goldens are its guard.

* :func:`shrink` reduces a failing spec to a minimal reproducer by a
  greedy fixpoint over structural shrinking transformations (less
  traffic, smaller machine, fewer resources), accepting a candidate only
  when it fails with the *same* exception type.  The result is dumped as
  replayable JobSpec JSON (:func:`dump_reproducer` / :func:`load_spec`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.circuit_cache import CacheEntryState
from repro.errors import ConfigError, ProtocolError, ReproError
from repro.orchestrate.pool import JobOutcome, run_jobs
from repro.orchestrate.runner import execute_job
from repro.orchestrate.spec import JobSpec, WorkloadRecipe
from repro.sim.config import NetworkConfig, WaveConfig, WormholeConfig
from repro.sim.rng import SimRandom
from repro.topology import build_topology
from repro.verify.deadlock import assert_no_deadlock
from repro.verify.invariants import check_all_invariants


# -- the per-cycle invariant harness -------------------------------------


class InvariantHarness:
    """Protocol-invariant oracle for fuzzed runs.

    Attach :meth:`on_cycle` to the simulator; call :meth:`finish` with
    the :class:`~repro.sim.engine.SimulationResult` after the run.  Every
    violation raises :class:`~repro.errors.ProtocolError` (or the
    detector's :class:`~repro.errors.DeadlockError`), which the pool
    reports as the job's failure.
    """

    def __init__(self, network, every: int = 1) -> None:
        if every < 1:
            raise ConfigError(f"harness cadence must be >= 1, got {every}")
        self.network = network
        self.every = every
        self.checks_run = 0
        # Rolling hash of (cycle, work counter) over every cycle: two runs
        # with equal hashes did the same work in the same cycles, not
        # just the same total.
        self.work_trajectory = 0

    # Each check is a method so failures name themselves in tracebacks.

    def on_cycle(self, net) -> None:
        self.work_trajectory = hash(
            (self.work_trajectory, net.cycle, net.work_counter)
        )
        if net.cycle % self.every:
            return
        check_all_invariants(net)
        net.activity.validate(net)
        self._check_cache_entries(net)
        self._check_probe_pairing(net)
        assert_no_deadlock(net)
        self.checks_run += 1

    def _check_cache_entries(self, net) -> None:
        """Cache-entry state machine: legal states, legal phase budgets."""
        for ni in net.interfaces:
            engine = getattr(ni, "engine", None)
            if engine is None or not hasattr(engine, "cache"):
                continue
            for entry in engine.cache.entries.values():
                if not isinstance(entry.state, CacheEntryState):
                    raise ProtocolError(
                        f"node {ni.node}: cache entry {entry.dest} in "
                        f"illegal state {entry.state!r}"
                    )
                if entry.phase not in (1, 2):
                    raise ProtocolError(
                        f"node {ni.node}: cache entry {entry.dest} in "
                        f"illegal phase {entry.phase}"
                    )
                if entry.switches_tried < 1:
                    raise ProtocolError(
                        f"node {ni.node}: cache entry {entry.dest} counts "
                        f"{entry.switches_tried} switches tried; the probe "
                        "in flight is always switch >= 1"
                    )
                if hasattr(engine, "_phase1_switch_budget"):
                    budget = (
                        engine._phase1_switch_budget()
                        if entry.phase == 1
                        else engine._phase2_switch_budget()
                    )
                    if entry.switches_tried > budget:
                        raise ProtocolError(
                            f"node {ni.node}: dest {entry.dest} phase "
                            f"{entry.phase} swept {entry.switches_tried} "
                            f"switches, budget is {budget}"
                        )

    def _check_probe_pairing(self, net) -> None:
        """Probes pair with setting-up circuits; counters balance."""
        plane = getattr(net, "plane", None)
        if plane is None:
            return
        for probe in plane.probes:
            circuit = plane.table.circuits.get(probe.circuit_id)
            if circuit is None:
                raise ProtocolError(
                    f"probe {probe.probe_id} references unknown circuit "
                    f"{probe.circuit_id}"
                )
            if circuit.state.value != "setting_up":
                raise ProtocolError(
                    f"probe {probe.probe_id} in flight for circuit "
                    f"{probe.circuit_id} in state {circuit.state.value}"
                )
        stats = net.stats
        resolved = stats.count("probe.succeeded") + stats.count("probe.failed")
        in_flight = stats.count("probe.launched") - resolved
        # Fault aborts of already-succeeded probes report through a ghost
        # probe.failed bump without a matching launch, so with dynamic
        # faults the identity weakens to an inequality.
        ghosts = stats.count("probe.fault_aborts")
        if not ghosts and len(plane.probes) != in_flight:
            raise ProtocolError(
                f"probe ledger: {len(plane.probes)} in flight but counters "
                f"say {in_flight} (launched - succeeded - failed)"
            )
        if ghosts and len(plane.probes) < in_flight:
            raise ProtocolError(
                f"probe ledger: {len(plane.probes)} in flight, counters "
                f"say >= {in_flight} even allowing {ghosts} fault aborts"
            )

    def finish(self, result) -> None:
        """End-of-run audit; call after the simulator returns.

        Accepts either a :class:`~repro.sim.engine.SimulationResult` or
        the :class:`~repro.analysis.experiments.ExperimentResult`
        wrapping one.
        """
        net = self.network
        sim = getattr(result, "sim", result)
        if sim.completed:
            self._check_delivered_or_reported(net)
            plane = getattr(net, "plane", None)
            if plane is not None and plane.probes:
                raise ProtocolError(
                    f"run drained with {len(plane.probes)} probes in flight"
                )
            pending = sum(
                ni.engine.pending_count()
                for ni in net.interfaces
                if getattr(ni, "engine", None) is not None
            )
            if pending:
                raise ProtocolError(
                    f"run drained with {pending} messages still pending "
                    "in protocol engines"
                )
        self.checks_run += 1

    def _check_delivered_or_reported(self, net) -> None:
        stats = net.stats
        lost = {rec.msg_id for rec in stats.losses}
        failed = {f.msg_id for f in stats.delivery_failures}
        for msg_id, rec in stats.messages.items():
            if rec.delivered >= 0:
                continue
            if msg_id in lost or msg_id in failed:
                continue
            mode = getattr(rec.mode, "value", None)
            if mode == "dropped":
                continue
            raise ProtocolError(
                f"message {msg_id} ({rec.src}->{rec.dst}, mode {mode}) "
                "neither delivered nor reported lost/failed/dropped"
            )


# -- scenario generation -------------------------------------------------

_TOPOLOGIES: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("mesh", (4,)),
    ("mesh", (3, 3)),
    ("mesh", (4, 4)),
    ("torus", (4,)),
    ("torus", (3, 3)),
    ("torus", (4, 4)),
    ("hypercube", (2, 2, 2)),
    ("fullmesh", (6,)),
    ("fullmesh", (9,)),
    ("min", (2, 2, 2)),
    ("min", (3, 3)),
)
_PROTOCOLS = ("wormhole", "clrp", "clrp", "carp")  # weight towards CLRP
_VARIANTS = ("standard", "eager_force", "single_switch", "immediate_force")
_REPLACEMENTS = ("lru", "lfu", "fifo", "random")
_PATTERNS = ("uniform", "uniform", "neighbor", "hotspot")


def generate_spec(index: int, master_seed: int = 0) -> JobSpec:
    """Draw one randomized-but-valid scenario as a plain JobSpec.

    Scenario ``(master_seed, index)`` is fully deterministic: the spec --
    and therefore, by the spec determinism contract, its result -- never
    changes across runs, processes or machines.
    """
    rng = SimRandom(master_seed).stream(f"fuzz.{index}")
    topology, dims = _TOPOLOGIES[rng.randrange(len(_TOPOLOGIES))]
    protocol = _PROTOCOLS[rng.randrange(len(_PROTOCOLS))]

    routing = "adaptive" if rng.random() < 0.3 else "dor"
    classes = 2 if topology == "torus" else 1
    min_vcs = classes + 1 if routing == "adaptive" else classes
    wormhole = WormholeConfig(
        vcs=rng.randrange(min_vcs, min_vcs + 2),
        buffer_depth=rng.choice((1, 2, 4)),
        routing=routing,
        router_delay=rng.choice((0, 1)),
    )
    wave = None
    if protocol != "wormhole":
        wave = WaveConfig(
            num_switches=rng.randrange(1, 4),
            misroute_budget=rng.randrange(0, 3),
            circuit_cache_size=rng.randrange(1, 5),
            replacement=rng.choice(_REPLACEMENTS),
            clrp_variant=rng.choice(_VARIANTS),
        )
    fault_fraction = 0.0
    mtbf = mttr = 0
    # Static faults drop undeliverable DOR worms by design; keep them to
    # a minority of scenarios so most runs assert full delivery.
    if rng.random() < 0.15:
        fault_fraction = rng.choice((0.02, 0.05))
    elif rng.random() < 0.1:
        mtbf = rng.randrange(3_000, 12_000)
        mttr = rng.choice((0, 800))

    pattern = _PATTERNS[rng.randrange(len(_PATTERNS))]
    if topology == "min" and pattern == "neighbor":
        # A MIN terminal's only neighbour is a switch; keep the draw count
        # identical so other scenarios are unaffected.
        pattern = "uniform"
    workload = WorkloadRecipe.make(
        "uniform",
        pattern=pattern,
        load=round(rng.uniform(0.05, 0.55), 3),
        length=rng.choice((2, 8, 24, 48)),
        duration=rng.randrange(150, 900),
    )
    config = NetworkConfig(
        topology=topology,
        dims=dims,
        protocol=protocol,
        wormhole=wormhole,
        wave=wave,
        seed=rng.randrange(1 << 30),
    )
    return JobSpec(
        config=config,
        workload=workload,
        label=f"fuzz-{master_seed}-{index}",
        max_cycles=120_000,
        fault_fraction=fault_fraction,
        mtbf=mtbf,
        mttr=mttr,
        deadlock_check_interval=67,
        progress_timeout=40_000,
        invariants_every=rng.randrange(1, 5),
    )


# -- shrinking -----------------------------------------------------------


def failure_signature(spec: JobSpec) -> str | None:
    """Execute a spec in-process; the failing exception type or None."""
    try:
        execute_job(spec)
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        return type(exc).__name__
    return None


def signature_of_outcome(outcome: JobOutcome) -> str:
    """Exception type name from a pool failure record."""
    message = (outcome.failure or {}).get("message", "")
    return message.split(":", 1)[0].strip() or "UnknownFailure"


def _with_workload(spec: JobSpec, **updates) -> JobSpec | None:
    params = dict(spec.workload.as_dict())
    kind = params.pop("kind")
    params.update(updates)
    try:
        return dataclasses.replace(
            spec, workload=WorkloadRecipe.make(kind, **params)
        )
    except ReproError:
        return None


def _with_config(spec: JobSpec, **updates) -> JobSpec | None:
    # dataclasses.replace re-runs __post_init__, so an individually
    # sensible shrink (halve a radix, drop a dimension) can violate a
    # cross-field constraint and raise.  Candidate construction must be
    # total: a shrink rule that produces an invalid config yields
    # nothing instead of blowing up the whole shrink loop (the exception
    # would propagate through the generator, past shrink()'s per-
    # candidate guard, and lose the original reproducer).
    try:
        return dataclasses.replace(
            spec, config=dataclasses.replace(spec.config, **updates)
        )
    except ReproError:
        return None


def _with_wave(spec: JobSpec, **updates) -> JobSpec | None:
    if spec.config.wave is None:
        return spec
    try:
        return _with_config(
            spec, wave=dataclasses.replace(spec.config.wave, **updates)
        )
    except ReproError:
        return None


def _candidate_valid(candidate: JobSpec) -> bool:
    """A shrink candidate must be buildable, not merely constructible.

    ``NetworkConfig.__post_init__`` validates field shapes but the
    topology constructors enforce more (a ``min`` is a k-ary n-fly with
    k >= 2, n >= 1 and ``terminals = k**n``; a hypercube needs radix 2
    everywhere) -- probe ``build_topology`` so a mid-shrink dims edit
    can never hand the executor a topology it rejects, which would
    surface as a spurious TopologyError signature or, worse, match a
    TopologyError-flavoured original failure and "shrink" towards
    garbage configs.
    """
    try:
        build_topology(candidate.config.topology, candidate.config.dims)
        candidate.key()  # validates serialisability too
    except (ReproError, ValueError):
        return False
    return True


def _shrink_candidates(spec: JobSpec):
    """Valid strictly-simpler variants of a failing spec, best first."""
    for candidate in _raw_shrink_candidates(spec):
        if candidate is not None and _candidate_valid(candidate):
            yield candidate


def _raw_shrink_candidates(spec: JobSpec):
    """Yield simpler variants of a failing spec (or None), unvalidated."""
    workload = spec.workload.as_dict()
    if workload["kind"] == "uniform":
        duration = int(workload["duration"])
        if duration > 50:
            yield _with_workload(spec, duration=max(50, duration // 2))
        load = float(workload["load"])
        if load > 0.05:
            yield _with_workload(spec, load=round(max(0.05, load / 2), 3))
        length = int(workload["length"])
        if length > 2:
            yield _with_workload(spec, length=max(2, length // 2))
        if workload.get("pattern", "uniform") != "uniform":
            yield _with_workload(spec, pattern="uniform")
    dims = spec.config.dims
    if spec.config.topology in ("mesh", "torus"):
        if len(dims) > 1:
            yield _with_config(spec, dims=dims[:-1])
        if any(d > 2 for d in dims):
            yield _with_config(
                spec, dims=tuple(max(2, d - 1) for d in dims)
            )
    elif spec.config.topology == "fullmesh":
        if dims[0] > 3:
            yield _with_config(spec, dims=(max(3, dims[0] // 2),))
    elif spec.config.topology == "min":
        # Fewer stages first, then a smaller (uniform) radix.
        if len(dims) > 1:
            yield _with_config(spec, dims=dims[:-1])
        if dims[0] > 2:
            yield _with_config(spec, dims=(dims[0] - 1,) * len(dims))
    if spec.fault_fraction:
        yield dataclasses.replace(spec, fault_fraction=0.0)
    if spec.mtbf:
        yield dataclasses.replace(spec, mtbf=0, mttr=0)
    wave = spec.config.wave
    if wave is not None:
        if wave.circuit_cache_size > 1:
            yield _with_wave(spec, circuit_cache_size=1)
        if wave.num_switches > 1:
            yield _with_wave(spec, num_switches=1)
        if wave.misroute_budget > 0:
            yield _with_wave(spec, misroute_budget=0)
        if wave.clrp_variant != "standard":
            yield _with_wave(spec, clrp_variant="standard")
        if wave.replacement != "lru":
            yield _with_wave(spec, replacement="lru")
    wormhole = spec.config.wormhole
    classes = 2 if spec.config.topology == "torus" else 1
    floor = classes + 1 if wormhole.routing == "adaptive" else classes
    if wormhole.vcs > floor:
        yield _with_config(
            spec, wormhole=dataclasses.replace(wormhole, vcs=floor)
        )
    if wormhole.buffer_depth > 1:
        yield _with_config(
            spec,
            wormhole=dataclasses.replace(
                wormhole, buffer_depth=wormhole.buffer_depth // 2
            ),
        )


@dataclass
class ShrinkResult:
    spec: JobSpec  # the minimal reproducer found
    signature: str
    attempts: int  # candidate executions spent
    steps: int  # accepted shrinking steps


def shrink(
    spec: JobSpec, signature: str, *, max_attempts: int = 48
) -> ShrinkResult:
    """Greedy fixpoint: adopt any simpler spec failing the same way."""
    attempts = steps = 0
    current = spec
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _shrink_candidates(current):
            # Candidates arrive pre-validated (_candidate_valid): buildable
            # topology, serialisable key.
            if attempts >= max_attempts:
                break
            attempts += 1
            if failure_signature(candidate) == signature:
                current = candidate
                steps += 1
                improved = True
                break  # restart from the smaller spec
    return ShrinkResult(
        spec=current, signature=signature, attempts=attempts, steps=steps
    )


# -- campaign ------------------------------------------------------------


@dataclass
class FuzzFailure:
    """One fuzz finding: the original spec and its minimal reproducer."""

    index: int
    signature: str
    message: str
    spec: JobSpec
    shrunk: ShrinkResult | None = None

    @property
    def reproducer(self) -> JobSpec:
        return self.shrunk.spec if self.shrunk is not None else self.spec


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    budget: int
    master_seed: int
    passed: int = 0
    from_cache: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_campaign(
    budget: int,
    *,
    master_seed: int = 0,
    jobs: int = 1,
    store=None,
    timeout_s: float | None = None,
    shrink_failures: bool = True,
    progress=None,
) -> FuzzReport:
    """Generate ``budget`` scenarios, run them under the harness, shrink.

    Scenario execution goes through the ordinary orchestration pool, so
    ``jobs > 1`` fans out across worker processes and a ``store`` gives
    caching and resume exactly as for experiment campaigns.
    """
    if budget < 1:
        raise ConfigError(f"fuzz budget must be >= 1, got {budget}")
    specs = [generate_spec(i, master_seed) for i in range(budget)]
    outcomes = run_jobs(
        specs,
        jobs=jobs,
        timeout_s=timeout_s,
        store=store,
        progress=progress,
    )
    report = FuzzReport(budget=budget, master_seed=master_seed)
    for outcome in outcomes:
        if outcome.ok:
            report.passed += 1
            report.from_cache += bool(outcome.from_cache)
            continue
        signature = signature_of_outcome(outcome)
        failure = FuzzFailure(
            index=outcome.index,
            signature=signature,
            message=(outcome.failure or {}).get("message", ""),
            spec=outcome.spec,
        )
        if shrink_failures and signature != "UnknownFailure":
            failure.shrunk = shrink(outcome.spec, signature)
        report.failures.append(failure)
    return report


# -- reproducer files ----------------------------------------------------


def dump_reproducer(failure: FuzzFailure, path) -> Path:
    """Write a failure's minimal reproducer as replayable JobSpec JSON."""
    path = Path(path)
    payload = {
        "signature": failure.signature,
        "message": failure.message,
        "spec": failure.reproducer.to_dict(),
        "original_spec": failure.spec.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_spec(path) -> JobSpec:
    """Load a reproducer file (or a bare spec dict) back into a JobSpec."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "spec" in data:
        data = data["spec"]
    return JobSpec.from_dict(data)
