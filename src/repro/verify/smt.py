"""The proof ladder for Theorems 1-2, with machine-checkable certificates.

:mod:`repro.verify.cdg` builds dependency graphs; this module decides
them.  For deterministic routing one graph is exact (Dally & Seitz:
cyclic CDG iff a deadlock is reachable), but for adaptive routing any
*single* graph is an approximation of Duato's actual condition -- a
routing function is deadlock-free iff **some** connected routing
subfunction has an acyclic extended dependency graph.  The *union*
dependency graph (every channel any route may use, accumulated -- the
method of Stramaglia, Keiren & Zantema's loop search) over-approximates,
and a config whose *designated* escape discipline fails may still be
freed by a different valid subrelation.  So every config climbs one
ladder (:func:`climb_ladder`) and every verdict is auditable:

* **Rung 1, acyclicity / escape** (Duato's sufficient condition): the
  designated discipline must be connected and its (extended) dependency
  graph acyclic.  For deterministic routing that is the whole question.

* **Rung 2, valid subrelation**: further candidate subfunctions
  (currently a ring-split dimension-order family that breaks torus ring
  ties by source parity) are checked the same way.  Any hit proves
  deadlock freedom per Duato's theorem even though every single-graph
  cycle search says "cyclic".

* **Rung 3, family-exhausted rejection**: the first refuting cycle is
  the witness; conclusive for deterministic routing, family-relative
  for adaptive routing (Duato's condition is existential).

* **Deciding a rung.**  A graph is acyclic iff the constraint system
  ``rank(u) < rank(v)`` for every dependency ``u -> v`` is satisfiable
  over the integers.  The native engine (longest-path ranks over Kahn's
  algorithm) decides it; ``find_cycle`` only extracts the witness of an
  unsatisfiable system.  With ``engine="z3"`` the same system is also
  discharged by z3, which must agree: a cross-check, never the decider.

* **Certificates.**  Every verdict emits JSON: which graph it is about
  (the subfunction, with a canonical hash so drift is detected),
  per-channel ranks for a FREE verdict or the witnessing cycle for a
  refutation, and the union-cycle evidence for adaptive configs.
  :func:`check_certificate` replays a certificate **without z3** -- rank
  replay is plain integer comparison edge by edge -- so a committed
  certificate is auditable on any machine.

* **Fuzzer seeding.**  A rejected config is converted into seeded
  scenarios (:func:`rejection_jobspecs`) for the PR 5 fuzzer, closing
  the loop between the prover and the runtime invariant harness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigError, ReproError
from repro.verify.cdg import (
    Channel,
    DesignatedGraph,
    Edges,
    EscapeSubfunction,
    FullRelation,
    SeparationCheck,
    analysed_classes,
    candidate_subfunctions,
    config_topology,
    designated_graph,
    find_cycle,
    subfunction_by_name,
    walk_dependencies,
)
from repro.wormhole.routing import AdaptiveRouting, make_routing

if TYPE_CHECKING:  # pragma: no cover
    from repro.orchestrate.spec import JobSpec
    from repro.sim.config import NetworkConfig

try:  # z3 is optional: the native engine decides; z3 only cross-checks.
    import z3 as _z3  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - exercised by the no-z3 CI job
    _z3 = None

CERT_FORMAT = "repro-cdg-cert/1"


# -- channel (de)serialisation -------------------------------------------


def chan_key(ch: Channel) -> str:
    """Stable string id of a channel for certificates: ``node:port:class``."""
    return f"{ch.node}:{ch.port}:{ch.vc_class}"


def parse_chan_key(key: str) -> Channel:
    node, port, vc_class = (int(part) for part in key.split(":"))
    return Channel(node, port, vc_class)


def _sorted_channels(edges: Edges) -> list[Channel]:
    return sorted(set(edges).union(*edges.values()))


def graph_fingerprint(edges: Edges) -> dict:
    """Canonical summary + hash of a dependency graph.

    The hash pins the exact edge set, so a committed certificate detects
    any later drift of the analyzer (changed walk, changed discipline)
    instead of silently vouching for a different graph.
    """
    canonical = {
        chan_key(src): sorted(chan_key(dst) for dst in edges.get(src, ()))
        for src in _sorted_channels(edges)
    }
    blob = json.dumps(canonical, sort_keys=True).encode()
    return {
        "channels": len(canonical),
        "deps": sum(len(v) for v in canonical.values()),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


# -- the rank engines ----------------------------------------------------


def solve_ranks_native(edges: Edges) -> dict[Channel, int] | None:
    """Exact acyclicity decision without any solver dependency.

    The constraint system ``rank(u) < rank(v)`` per edge is satisfiable
    iff the graph is acyclic; the canonical model is the longest-path
    depth of each vertex (Kahn's algorithm).  Returns the rank model, or
    ``None`` when the constraints are unsatisfiable (a cycle exists).
    """
    vertices = _sorted_channels(edges)
    indegree = {v: 0 for v in vertices}
    for src, outs in edges.items():
        for dst in outs:
            indegree[dst] += 1
    ranks = {v: 0 for v in vertices}
    ready = [v for v in vertices if indegree[v] == 0]
    done = 0
    while ready:
        nxt: list[Channel] = []
        for vertex in ready:
            done += 1
            for out in edges.get(vertex, ()):
                ranks[out] = max(ranks[out], ranks[vertex] + 1)
                indegree[out] -= 1
                if indegree[out] == 0:
                    nxt.append(out)
        ready = nxt
    if done != len(vertices):
        return None  # some vertices sit on a cycle
    return ranks


def solve_ranks_z3(edges: Edges) -> dict[Channel, int] | None:
    """The same constraint system, discharged by z3.

    One integer variable per channel, one strict inequality per
    dependency; ``sat`` returns the model, ``unsat`` proves a cycle.
    """
    if _z3 is None:
        raise ConfigError(
            "z3-solver is not installed; use engine='native' or install "
            "the 'smt' extra (pip install repro[smt])"
        )
    vertices = _sorted_channels(edges)
    solver = _z3.Solver()
    var = {v: _z3.Int(chan_key(v)) for v in vertices}
    for src, outs in edges.items():
        for dst in outs:
            solver.add(var[src] < var[dst])
    if solver.check() != _z3.sat:
        return None
    model = solver.model()
    return {
        v: model.eval(var[v], model_completion=True).as_long()
        for v in vertices
    }


def solve_ranks(
    edges: Edges, engine: str
) -> tuple[dict[Channel, int] | None, str]:
    """Decide one graph; returns ``(ranks_or_None, engine_used)``.

    The native engine always decides.  ``engine="z3"`` additionally
    discharges the same constraints with z3, which must reach the same
    verdict; its model is the one returned, so certificate replay
    checks the cross-check's own ranks edge by edge.
    """
    if engine not in ("native", "z3"):
        raise ConfigError(f"unknown SMT engine {engine!r}")
    ranks = solve_ranks_native(edges)
    if engine == "native":
        return ranks, "native"
    crosscheck = solve_ranks_z3(edges)
    if (ranks is None) != (crosscheck is None):
        raise ReproError(
            "rank engines disagree: native says "
            f"{'cyclic' if ranks is None else 'acyclic'}, z3 the opposite"
        )
    return crosscheck, f"z3-{_z3.get_version_string()}"


# -- verdicts ------------------------------------------------------------


# Certificate method -> the rung of the ladder that decided.
RUNGS = {"acyclicity": 1, "escape": 1, "subrelation": 2, "refuted": 3}


@dataclass
class SmtReport:
    """Outcome of one climb of the proof ladder."""

    graph: DesignatedGraph
    engine: str  # "native" or "z3-<version>"
    method: str  # acyclicity | escape | subrelation | refuted
    deadlock_free: bool
    conclusive: bool  # False only when the subrelation family is exhausted
    detail: str
    certificate: dict
    union_cyclic: bool | None = None  # adaptive configs only
    # Adaptive configs only: the subfunction whose graph the verdict (and
    # the certificate's hash, ranks or cycle) is about.
    subfunction: str | None = None
    # First refuting cycle met on the way up -- the rejection's witness,
    # or the reason a lower rung failed -- and the graph it lives in.
    cycle: list[Channel] = field(default_factory=list)
    cycle_graph: str | None = None

    @property
    def rung(self) -> int:
        return RUNGS[self.method]


def _cert_config(config: "NetworkConfig") -> dict:
    return {
        "topology": config.topology,
        "dims": list(config.dims),
        "protocol": config.protocol,
        "routing": config.wormhole.routing,
        "vcs": config.wormhole.vcs,
    }


def _ranks_json(ranks: dict[Channel, int]) -> dict[str, int]:
    return {chan_key(ch): rank for ch, rank in sorted(ranks.items())}


def _cycle_json(cycle: list[Channel]) -> list[str]:
    return [chan_key(ch) for ch in cycle]


def climb_ladder(graph: DesignatedGraph, engine: str = "native") -> SmtReport:
    """Decide deadlock freedom exactly and emit a certificate.

    Deterministic routing: rank the (plain) CDG -- satisfiable iff
    acyclic iff deadlock-free (exact both ways).  Adaptive routing:
    search for a connected subfunction with an acyclic extended graph
    (the designated escape discipline first, then the wider family);
    any hit is a proof of freedom per Duato's theorem.  When the family
    is exhausted the verdict is a *rejection with a caveat*
    (``conclusive=False``): the witnessing cycle is a real graph cycle,
    but Duato's condition is existential so a subfunction outside the
    family could still exist.
    """
    routing, num_classes = graph.routing, graph.num_classes
    adaptive = isinstance(routing, AdaptiveRouting)
    cert = {
        "format": CERT_FORMAT,
        "config": _cert_config(graph.config),
        "assume_classes": graph.assume_classes,
    }
    union: Edges = {}
    union_cycle: list[Channel] = []
    if adaptive:
        # What a plain loop search sees, recorded as evidence of the
        # over-approximation the rungs below resolve.
        union, _ = walk_dependencies(
            routing, FullRelation(routing, num_classes)
        )
        union_cycle = find_cycle(union)
        cert["union_cycle"] = _cycle_json(union_cycle)

    candidates = candidate_subfunctions(routing, num_classes)
    designated = candidates[0]  # already walked: never rebuilt
    proved = ranks = None
    cycle_graph, cycle_edges, cycle = None, union, []  # SmtReport.cycle
    engine_used = engine
    for sub in candidates:
        edges, connected = (
            (graph.edges, graph.connected) if sub is designated
            else walk_dependencies(routing, sub)
        )
        if not connected:
            continue
        ranks, engine_used = solve_ranks(edges, engine)
        if ranks is not None:
            proved = sub
            break
        if not cycle:
            cycle_graph, cycle_edges = sub.name, edges
            cycle = find_cycle(edges)

    free = proved is not None
    if free:
        about = proved.name
        cert["ranks"] = _ranks_json(ranks)
        if not adaptive:
            method = "acyclicity"
        else:
            method = "escape" if proved is designated else "subrelation"
    else:
        # Family exhausted.  The certificate fingerprints the graph the
        # witness lives in, so replay checks the cycle against that graph.
        if not cycle:
            cycle_graph, cycle = FullRelation.name, union_cycle
        about, edges, method = cycle_graph, cycle_edges, "refuted"
        cert["cycle"] = _cycle_json(cycle)
    fingerprint = graph_fingerprint(edges)
    size = f"{fingerprint['channels']} channels / {fingerprint['deps']}"
    if method == "acyclicity":
        detail = (
            f"rank model over {size} dependencies (deterministic routing: "
            "exact)"
        )
    elif free:
        detail = (
            f"connected subfunction '{about}' with acyclic extended graph "
            f"({size} deps): deadlock-free per Duato"
            + ("; union graph cyclic (a plain cycle search "
               "over-approximates this config)" if union_cycle else "")
        )
    elif adaptive:
        detail = (
            "no connected subfunction with an acyclic extended graph in "
            f"the search family ({len(candidates)} candidates); rejection "
            "is family-relative (Duato's condition is existential)"
        )
    else:
        detail = (
            "rank constraints unsatisfiable; witnessing cycle of "
            f"{len(cycle) - 1} channels (deterministic routing: a "
            "reachable circular wait)"
        )
    if adaptive:
        cert["subfunction"] = about
    cert.update(
        method=method, engine=engine_used, deadlock_free=free,
        conclusive=free or not adaptive, graph=fingerprint,
    )
    return SmtReport(
        graph=graph, engine=engine_used, method=method, deadlock_free=free,
        conclusive=free or not adaptive, detail=detail, certificate=cert,
        union_cyclic=bool(union_cycle) if adaptive else None,
        subfunction=about if adaptive else None,
        cycle=cycle, cycle_graph=cycle_graph,
    )


def verify_config(
    config: "NetworkConfig",
    *,
    assume_classes: int | None = None,
    engine: str = "native",
) -> SmtReport:
    """Climb the ladder for one configuration (no separation leg: that is
    :func:`repro.verify.cdg.analyze_config` / ``separation_leg``)."""
    return climb_ladder(designated_graph(config, assume_classes), engine)


def format_report(
    report: SmtReport, checks: Iterable[SeparationCheck] = ()
) -> str:
    """Render one configuration the way ``repro verify-cdg`` prints it."""
    graph = report.graph
    routing = type(graph.routing).__name__
    kind = "extended CDG" if routing == "AdaptiveRouting" else "CDG"
    lines = [
        f"{kind}: {graph.topology!r} / {routing} "
        f"({graph.num_classes} VC class(es)): {len(graph.edges)} channels, "
        f"{sum(len(v) for v in graph.edges.values())} dependencies",
    ]
    if report.cycle:
        lines.append(
            f"  CYCLE of {len(report.cycle) - 1} channels in the "
            f"'{report.cycle_graph}' graph: "
            + " -> ".join(ch.describe(graph.topology) for ch in report.cycle)
        )
    else:
        lines.append("  acyclic: no channel-wait cycle exists (Theorems 1-2)")
    for check in checks:
        mark = "ok" if check.passed else "FAIL"
        lines.append(f"  [{mark}] {check.name}: {check.detail}")
    verdict = "DEADLOCK-FREE" if report.deadlock_free else (
        "REJECTED" if report.conclusive else "REJECTED (inconclusive)"
    )
    lines.append(
        f"  rung {report.rung} ({report.method}) [{report.engine}]: {verdict}"
    )
    lines.append(f"    {report.detail}")
    return "\n".join(lines)


# -- certificate replay (no z3, no solver) --------------------------------


@dataclass
class CertificateCheck:
    """Result of replaying a certificate against the current code."""

    ok: bool
    errors: list[str] = field(default_factory=list)
    detail: str = ""


def _config_from_cert(cert: dict) -> "NetworkConfig":
    from repro.sim.config import NetworkConfig, WaveConfig, WormholeConfig

    cfg = cert["config"]
    protocol = cfg.get("protocol", "wormhole")
    # The dependency graph lives in the wormhole routing layer; wave
    # parameters never affect it, so default S1..Sk settings suffice to
    # rebuild a wave-protocol config.
    wave = None if protocol == "wormhole" else WaveConfig()
    return NetworkConfig(
        topology=cfg["topology"],
        dims=tuple(cfg["dims"]),
        protocol=protocol,
        wave=wave,
        wormhole=WormholeConfig(
            vcs=cfg["vcs"], routing=cfg["routing"]
        ),
    )


def _replay_ranks(
    edges: Edges, ranks_json: dict[str, int], errors: list[str]
) -> int:
    """Edge-by-edge strict-increase replay; returns edges checked."""
    ranks = {parse_chan_key(k): v for k, v in ranks_json.items()}
    checked = 0
    for vertex in _sorted_channels(edges):
        if vertex not in ranks:
            errors.append(f"channel {chan_key(vertex)} has no rank")
            return checked
    for src, outs in edges.items():
        for dst in outs:
            checked += 1
            if not ranks[src] < ranks[dst]:
                errors.append(
                    f"rank({chan_key(src)})={ranks[src]} !< "
                    f"rank({chan_key(dst)})={ranks[dst]}"
                )
                return checked
    return checked


def _replay_cycle(
    edges: Edges, cycle_json: list[str], errors: list[str]
) -> None:
    """The recorded cycle must be a closed chain of real dependencies."""
    chain = [parse_chan_key(k) for k in cycle_json]
    if len(chain) < 2 or chain[0] != chain[-1]:
        errors.append("cycle witness is not a closed chain")
        return
    for src, dst in zip(chain, chain[1:]):
        if dst not in edges.get(src, ()):
            errors.append(
                f"claimed dependency {chan_key(src)} -> {chan_key(dst)} "
                "does not exist in the rebuilt graph"
            )
            return


def check_certificate(cert: dict) -> CertificateCheck:
    """Replay a certificate with plain graph walks and integer compares.

    Rebuilds the graph the certificate names (its ``subfunction``; the
    designated discipline when absent) from the certified configuration
    -- pure Python, no z3 -- verifies the canonical hash (drift
    detection), then replays the rank model or the cycle witness.  A
    proof's subfunction must be connected, and for adaptive configs the
    union-cycle evidence is replayed too.
    """
    errors: list[str] = []
    if cert.get("format") != CERT_FORMAT:
        return CertificateCheck(
            False, [f"unknown certificate format {cert.get('format')!r}"]
        )
    method = cert.get("method")
    if method not in RUNGS:
        return CertificateCheck(False, [f"unknown method {method!r}"])
    try:
        config = _config_from_cert(cert)
        routing = make_routing(
            config.wormhole.routing, config_topology(config),
            config.wormhole.vcs,
        )
        num_classes = analysed_classes(routing, cert.get("assume_classes"))
        sub = subfunction_by_name(
            cert.get("subfunction", EscapeSubfunction.name),
            routing, num_classes,
        )
    except ReproError as exc:
        return CertificateCheck(False, [f"config rebuild failed: {exc}"])

    edges, connected = walk_dependencies(routing, sub)
    fingerprint = graph_fingerprint(edges)
    recorded = cert.get("graph", {})
    if recorded.get("sha256") != fingerprint["sha256"]:
        errors.append(
            "graph drift: certificate hash "
            f"{recorded.get('sha256', '?')[:12]} != rebuilt "
            f"{fingerprint['sha256'][:12]}"
        )
    checked = 0
    if cert.get("deadlock_free"):
        if not connected:
            errors.append(f"subfunction {sub.name!r} is not connected")
        checked = _replay_ranks(edges, cert.get("ranks", {}), errors)
    else:
        _replay_cycle(edges, cert.get("cycle", []), errors)
    if isinstance(routing, AdaptiveRouting) and cert.get("union_cycle"):
        union, _ = walk_dependencies(
            routing, FullRelation(routing, num_classes)
        )
        _replay_cycle(union, cert["union_cycle"], errors)
    return CertificateCheck(
        ok=not errors,
        errors=errors,
        detail=(
            f"{cert['config']['topology']}/{cert['config']['routing']} "
            f"{method}: replayed "
            + (f"{checked} rank constraints" if cert.get("deadlock_free")
               else f"cycle of {max(len(cert.get('cycle', [])) - 1, 0)}")
            + f" over {fingerprint['channels']} channels"
        ),
    )


# -- certificate files ---------------------------------------------------


def certificate_slug(
    config: "NetworkConfig", assume_classes: int | None = None
) -> str:
    shape = "x".join(str(d) for d in config.dims)
    parts = [
        config.topology, shape, config.protocol,
        config.wormhole.routing, f"vcs{config.wormhole.vcs}",
    ]
    if assume_classes is not None:
        parts.append(f"assume{assume_classes}")
    return "-".join(parts)


def dump_certificate(cert: dict, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(cert, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_certificate(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_certificate_files(paths: Iterable) -> list[tuple[Path, CertificateCheck]]:
    """Replay a batch of certificate files (CI's prover-check job)."""
    results = []
    for path in sorted(Path(p) for p in paths):
        try:
            cert = load_certificate(path)
            results.append((path, check_certificate(cert)))
        except (OSError, ValueError) as exc:
            results.append(
                (path, CertificateCheck(False, [f"unreadable: {exc}"]))
            )
    return results


# -- closing the loop with the fuzzer ------------------------------------


def rejection_jobspecs(
    config: "NetworkConfig",
    *,
    seeds: tuple[int, ...] = (0, 1, 2),
    load: float = 0.35,
) -> "list[JobSpec]":
    """Seeded stress scenarios for a config the prover rejected.

    Each spec runs the exact rejected configuration near saturation with
    the runtime deadlock detector and the full invariant harness enabled,
    so ``repro fuzz --replay`` hunts for the predicted circular wait.
    The prover and the runtime harness thereby check each other: a
    rejection the fuzzer can never reproduce is analyzer over-
    approximation evidence; a reproduced deadlock is a confirmed finding.
    """
    from repro.orchestrate.spec import JobSpec, WorkloadRecipe

    specs = []
    for i, seed in enumerate(seeds):
        workload = WorkloadRecipe.make(
            "uniform", pattern="uniform", load=load, length=16,
            duration=600,
        )
        specs.append(JobSpec(
            config=dataclasses.replace(config, seed=seed),
            workload=workload,
            label=f"cdg-rejected-{certificate_slug(config)}-{i}",
            max_cycles=80_000,
            deadlock_check_interval=67,
            progress_timeout=30_000,
            invariants_every=4,
        ))
    return specs


def dump_rejection_specs(
    config: "NetworkConfig", out_dir, **kwargs
) -> list[Path]:
    """Write rejection scenarios as ``repro fuzz --replay``-able JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in rejection_jobspecs(config, **kwargs):
        path = out / f"{spec.label}.json"
        path.write_text(
            json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        paths.append(path)
    return paths
