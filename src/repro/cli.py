"""Command-line front-end: run simulations without writing Python.

Usage::

    python -m repro run   --topology mesh --dims 8x8 --protocol clrp \
                          --load 0.2 --length 64 --duration 5000
    python -m repro sweep --protocol clrp --loads 0.1,0.3,0.6 --length 128 \
                          --jobs 4
    python -m repro compare --load 0.3 --length 128 --jobs 3
    python -m repro batch campaign.json --jobs 8
    python -m repro chaos --dims 8x8 --mtbf 2000 --mttr 1000 --seeds 0,1,2

``run`` simulates one configuration and prints the delivery/latency/mode
report; ``sweep`` produces a throughput-vs-load table for one protocol;
``compare`` runs wormhole / CLRP / CARP side by side on the same traffic;
``batch`` executes a whole campaign file through the orchestrator with
caching and resume (see :mod:`repro.orchestrate.campaign` for the
schema); ``chaos`` runs a seeded random link-kill/heal campaign per
protocol x seed with the reliability layer on and asserts the delivery
contract -- every message delivered or reported, no deadlock.
``sweep``, ``compare``, ``batch`` and ``chaos`` accept ``--jobs N`` to
fan points out over worker processes -- results are bit-identical to a
serial run, merged in job order.

Every simulating subcommand takes one road: :func:`entry_from_args` maps
the flags onto a campaign entry, ``spec_from_entry`` decodes it, and
``prepare_job`` + ``PreparedJob.run`` build and run it -- in-process for
``run`` / ``trace`` / ``heatmap`` (they render from the live network),
in pool workers for the rest.  Flags and the campaign entry spelling the
same values share a content key, hence a result-store record.

Any simulating subcommand takes ``--fault-fraction`` (static dead links),
``--mtbf``/``--mttr`` (random dynamic campaign), ``--fault-schedule
"cycle:kill|heal:node:port,..."`` (explicit events) and ``--reliable``
(end-to-end ack/retransmit layer).

Observability: ``repro trace <args>`` runs one configuration with event
tracing on and exports a Perfetto-loadable Chrome trace JSON (plus an
optional JSONL metrics dump); ``run`` and ``heatmap`` accept ``--trace``
/ ``--trace-limit`` / ``--trace-out`` for the same export, and every
simulating subcommand takes ``--metrics-every N`` to sample the metric
registry on an N-cycle cadence (sweep/compare/chaos/batch jobs then
carry per-job ``observe`` summaries in their result store).  ``-v``
(before the subcommand) raises log verbosity to DEBUG.

Service mode: ``repro serve`` starts the asyncio HTTP job server
(:mod:`repro.service`) with a sharded sqlite result store, per-tenant
fair scheduling and cross-campaign dedup; ``repro submit campaign.json
--follow`` sends a campaign to it and streams per-job results live;
``repro jobs`` lists campaigns/jobs and server statistics.  ``repro
store stats|compact|convert`` maintains result stores directly --
``compact`` rewrites a JSONL store to its last-record-wins snapshot and
reports how many superseded records were dropped, ``convert`` copies
records between the JSONL and sqlite backends.  Stores everywhere are
named either as a ``.jsonl`` path or ``sqlite:DIR``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.report import format_table
from repro.errors import ConfigError
from repro.observe import (
    DEFAULT_TRACE_LIMIT,
    Tracer,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.observe.logbook import configure as configure_logging
from repro.observe.logbook import get_logger
from repro.orchestrate import (
    JobOutcome,
    PoolProgress,
    config_from_mapping,
    load_campaign,
    open_store,
    prepare_job,
    run_jobs,
    spec_from_entry,
)
from repro.orchestrate.campaign import set_dotted
from repro.sim.config import NetworkConfig, WormholeConfig
from repro.topology import (
    FaultSchedule,
    build_topology,
    registered_topologies,
)

logger = get_logger("cli")

# Where each flag's value (by argparse dest) lives in a campaign entry.
# A subcommand maps exactly the flags it declares: verify-cdg has only
# the network ones, so its entry is a bare machine description.
_ENTRY_PATHS = {
    **{name: name for name in (
        "topology", "dims", "protocol", "seed", "backend", "label",
        "max_cycles", "warmup", "fault_fraction", "progress_timeout",
        "mtbf", "mttr", "metrics_every",
    )},
    "deadlock_check": "deadlock_check_interval",
    **{name: f"wormhole.{name}" for name in ("vcs", "routing", "buffer_depth")},
    **{name: f"workload.{name}"
       for name in ("pattern", "load", "length", "duration")},
    "wave_switches": "wave.num_switches",
    "misroute_budget": "wave.misroute_budget",
    "wave_clock_ratio": "wave.wave_clock_ratio",
    "window": "wave.window",
    "cache_size": "wave.circuit_cache_size",
    "replacement": "wave.replacement",
    "clrp_variant": "wave.clrp_variant",
}


def entry_from_args(args: argparse.Namespace, **overrides) -> dict:
    """The parsed flags, ``overrides`` winning, as a campaign entry.

    The throughput window follows ``run_experiment`` methodology: warmup
    at ``duration // 5`` (skip fill transient), window end at the last
    delivery, so messages draining after the injection window count.
    """
    flags = {**vars(args), **overrides}
    entry: dict = {}
    for flag, path in _ENTRY_PATHS.items():
        if flag in flags:
            set_dotted(entry, path, flags[flag])
    if "workload" in entry:
        entry["workload"]["kind"] = "uniform"
        entry.setdefault("warmup", flags["duration"] // 5)
    if flags.get("reliable"):
        entry["reliability"] = {}
    if entry["protocol"] == "wormhole":
        # The wave flags always parse to their defaults, but a wormhole
        # machine has no wave plane (and its content key says so).
        del entry["wave"]
    return entry


def parse_fault_schedule(text: str, topology) -> FaultSchedule:
    """Parse ``cycle:kind:node:port,...`` into an explicit schedule."""
    sched = FaultSchedule(topology)
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != 4:
            raise ConfigError(
                f"bad fault event {part!r}; expected cycle:kind:node:port"
            )
        raw_cycle, kind, raw_node, raw_port = fields
        try:
            cycle, node, port = int(raw_cycle), int(raw_node), int(raw_port)
        except ValueError:
            raise ConfigError(
                f"bad fault event {part!r}; cycle/node/port must be integers"
            )
        if kind == "kill":
            sched.schedule_kill(cycle, node, port)
        elif kind == "heal":
            sched.schedule_heal(cycle, node, port)
        else:
            raise ConfigError(
                f"bad fault event kind {kind!r}; expected kill or heal"
            )
    return sched


def run_direct(args: argparse.Namespace):
    """One in-process run for ``run`` / ``trace`` / ``heatmap``.

    The flags become a spec and :func:`prepare_job` builds it exactly as
    a pool worker would; the live network is what these subcommands add:
    a tracer goes on before the run, the trace JSON / metrics JSONL are
    written after it, and the callers render from the network.  Returns
    ``(network, simulation result, tracer)``.
    """
    if args.metrics_out and not args.metrics_every:
        raise ConfigError("--metrics-out requires --metrics-every N")
    spec = spec_from_entry(entry_from_args(args))
    faults = None
    if args.fault_schedule:
        faults = parse_fault_schedule(
            args.fault_schedule,
            build_topology(spec.config.topology, spec.config.dims),
        )
    job = prepare_job(spec, faults=faults)
    net = job.network
    tracer = None
    if args.trace:
        tracer = Tracer(args.trace_limit)
        net.attach_event_log(tracer)
    result = job.run().sim
    registry = None
    if job.sampler is not None:
        # The exports keep the last partial sampling interval.
        job.sampler.flush(net)
        registry = job.sampler.registry
    if tracer is not None:
        out = args.trace_out or "repro-trace.json"
        count = write_chrome_trace(out, tracer, registry=registry)
        s = tracer.summary()
        logger.info(
            "trace: %d event(s) retained of %d emitted (%d dropped) "
            "-> %s (%d trace events)",
            s["retained"], s["emitted"], s["dropped"], out, count,
        )
    if args.metrics_out:
        lines = write_metrics_jsonl(args.metrics_out, registry)
        logger.info("metrics: %d sample(s) -> %s", lines, args.metrics_out)
    print(f"machine : {spec.config.describe()}")
    print(f"result  : {result.summary()}")
    return net, result, tracer


def cmd_run(args: argparse.Namespace) -> int:
    net, result, _tracer = run_direct(args)
    breakdown = net.stats.mode_breakdown()
    if breakdown:
        total = sum(breakdown.values())
        print()
        print(
            format_table(
                ["mode", "messages", "share"],
                [(m, c, f"{c / total:.1%}") for m, c in sorted(breakdown.items())],
            )
        )
    hist = net.stats.latency_histogram()
    print()
    print(
        format_table(
            ["latency metric", "cycles"],
            [
                ("mean", net.stats.mean_latency()),
                ("p50", hist.percentile(50)),
                ("p95", hist.percentile(95)),
                ("max", hist.max),
            ],
        )
    )
    return 0 if result.delivered == result.injected else 1


def log_progress(event: PoolProgress) -> None:
    """Per-job progress line for the campaign-sized subcommands."""
    if event.last is None:
        if event.cached:
            logger.info("[%d/%d] %d cached",
                        event.done, event.total, event.cached)
        return
    outcome = event.last
    state = outcome.status
    if not outcome.ok:
        state = f"failed:{outcome.failure['kind']}"
    logger.info("[%d/%d] %s %s (%.1fs)", event.done, event.total,
                state, outcome.spec.label, outcome.elapsed_s)


def run_table(
    args: argparse.Namespace,
    names: list,
    specs: list,
    headers: list[str],
    row,
    **pool_options,
) -> list[JobOutcome]:
    """Run specs through the pool and print one result table.

    The one driver behind ``sweep`` / ``compare`` / ``chaos`` / ``batch``:
    ``row(name, metrics, outcome)`` renders a finished job's cells after
    its name; a failed job gets the row ``name, failed:<kind>, -, ...``
    and a ``failure:`` paragraph under the table.  Returns the failed
    outcomes -- a subcommand exits 0 only when there are none.
    """
    outcomes = run_jobs(
        specs,
        jobs=args.jobs,
        timeout_s=args.job_timeout,
        store=open_store(args.store) if args.store else None,
        **pool_options,
    )
    rows = []
    failed = []
    for name, outcome in zip(names, outcomes):
        if outcome.ok:
            rows.append((name, *row(name, outcome.metrics, outcome)))
        else:
            failed.append(outcome)
            rows.append(
                (name, f"failed:{outcome.failure['kind']}")
                + ("-",) * (len(headers) - 2)
            )
    print()
    print(format_table(headers, rows))
    for outcome in failed:
        print(f"\nfailure: {outcome.spec.label} "
              f"({outcome.failure['kind']}, {outcome.attempts} attempt(s))")
        print(f"  {outcome.failure['message'].splitlines()[0]}")
    return failed


def cmd_sweep(args: argparse.Namespace) -> int:
    loads = [float(x) for x in args.loads.split(",")]
    specs = [
        spec_from_entry(
            entry_from_args(args, load=load, label=f"{args.protocol}@{load:g}")
        )
        for load in loads
    ]

    def row(load, m, _outcome):
        logger.info("load %g: throughput %.3f flits/node/cycle",
                    load, m["throughput"])
        return (m["throughput"], m["mean_latency"],
                f"{m['delivered']}/{m['injected']}")

    failed = run_table(
        args, loads, specs,
        ["offered load", "accepted", "mean latency", "delivered"], row,
    )
    return 0 if not failed else 1


def cmd_compare(args: argparse.Namespace) -> int:
    protocols = ["wormhole", "clrp", "carp"]
    specs = [
        spec_from_entry(entry_from_args(args, protocol=protocol, label=protocol))
        for protocol in protocols
    ]

    def row(protocol, m, _outcome):
        logger.info("%s: done (%d cycles)", protocol, m["cycles"])
        return (m["mean_latency"], m["p95_latency"],
                f"{m['delivered']}/{m['injected']}")

    failed = run_table(
        args, protocols, specs,
        ["protocol", "mean latency", "p95 latency", "delivered"], row,
    )
    return 0 if not failed else 1


def cmd_batch(args: argparse.Namespace) -> int:
    name, specs = load_campaign(args.campaign)
    if not args.store:
        args.store = str(Path(args.campaign).with_suffix(".results.jsonl"))
    logger.info("campaign %s: %d jobs, store %s, jobs=%d",
                name, len(specs), args.store, args.jobs)

    def row(_label, m, outcome):
        return ("cached" if outcome.from_cache else "ok", m["mean_latency"],
                m["throughput"], f"{m['delivered']}/{m['injected']}")

    failed = run_table(
        args, [spec.label for spec in specs], specs,
        ["job", "status", "mean latency", "throughput", "delivered"], row,
        retries=args.retries, progress=log_progress,
    )
    print(f"\n{len(specs) - len(failed)}/{len(specs)} jobs ok; "
          f"re-run to retry failures (completed points are cached).")
    return 0 if not failed else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Randomized fault campaign with the delivery guarantee asserted.

    Every (protocol, seed) point runs with the reliability layer forced
    on under a seeded random kill/heal schedule.  A point passes when the
    run drains (no deadlock -- the periodic detector is always on) and
    every injected message is either delivered or reported as an explicit
    DeliveryFailure: ``injected == delivered + delivery_failures``.
    """
    if args.fault_schedule:
        raise ConfigError("chaos derives its own schedule; drop --fault-schedule")
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    seeds = [int(s) for s in args.seeds.split(",")]
    mtbf = args.mtbf or 2000
    specs = [
        spec_from_entry(
            entry_from_args(
                args, protocol=protocol, seed=seed, reliable=True, mtbf=mtbf,
                deadlock_check=args.deadlock_check or 256,
                # No throughput is read here, and stores written before
                # the flags shared one mapping carry no warmup.
                warmup=0, label=f"chaos/{protocol}#{seed}",
            )
        )
        for protocol in protocols
        for seed in seeds
    ]
    logger.info("chaos: %d runs (%s %s, mtbf=%d, mttr=%d, load=%g)",
                len(specs), args.dims, args.topology, mtbf, args.mttr,
                args.load)
    violations = []

    def row(point, m, _outcome):
        counters = m["counters"]
        failures = counters.get("reliability.delivery_failures", 0)
        unaccounted = m["injected"] - m["delivered"] - failures
        status = "ok"
        if not m["completed"]:
            status = "cut off"
            violations.append(f"{point}: run did not drain in "
                              f"{args.max_cycles} cycles")
        if unaccounted:
            status = "LOST"
            violations.append(
                f"{point}: {unaccounted} message(s) unaccounted for "
                f"(injected {m['injected']}, delivered {m['delivered']}, "
                f"reported failures {failures})"
            )
        return (status, f"{m['delivered']}/{m['injected']}", failures,
                counters.get("reliability.retransmits", 0),
                counters.get("fault.links_killed", 0))

    points = [spec.label.removeprefix("chaos/") for spec in specs]
    failed = run_table(
        args, points, specs,
        ["run", "status", "delivered", "reported failures",
         "retransmits", "links killed"], row,
    )
    if violations:
        print()
        for line in violations:
            print(f"violation: {line}")
    if failed or violations:
        return 1
    print("\nall runs drained: every message delivered or reported, "
          "no deadlock detected.")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one configuration fully traced and export the Perfetto JSON.

    ``args.trace`` is forced on by the subcommand defaults, so
    :func:`run_direct` attaches the ring-buffer tracer and writes the
    Chrome trace (plus the JSONL metrics dump when requested); this
    command adds the per-kind event census on top of the run report.
    """
    _net, result, tracer = run_direct(args)
    summary = tracer.summary()
    print()
    print(
        format_table(
            ["event kind", "count"],
            sorted(tracer.kind_counts().items()),
        )
    )
    span = f"{summary['first_cycle']}..{summary['last_cycle']}"
    print(f"\n{summary['retained']} event(s) over cycles {span}"
          + (f" ({summary['dropped']} dropped; raise --trace-limit)"
             if summary["dropped"] else ""))
    return 0 if result.delivered == result.injected else 1


def cmd_heatmap(args: argparse.Namespace) -> int:
    from repro.analysis.viz import link_loadmap, node_heatmap

    net, _result, _tracer = run_direct(args)
    print()
    print(link_loadmap(net, title=f"link load at offered {args.load:g}"))
    print()
    print(node_heatmap(
        net,
        lambda n: float(net.interfaces[n].messages_delivered),
        title="deliveries per node",
    ))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the async job server in the foreground (see repro.service)."""
    from repro.service import ServiceConfig, run_service

    journal: str | bool | None = args.journal
    if isinstance(journal, str) and journal.lower() == "off":
        journal = False
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store=args.store,
        workers=args.workers,
        executor=args.executor,
        max_inflight_per_tenant=args.max_inflight,
        rate=args.rate,
        burst=args.burst,
        journal=journal,
        resume=args.resume,
        job_timeout_s=args.job_timeout,
        retries=args.retries,
        drain_timeout_s=args.drain_timeout,
    )
    run_service(config)
    return 0


def cmd_chaos_serve(args: argparse.Namespace) -> int:
    """Run the scripted kill-and-resume chaos scenario (dev/CI smoke)."""
    from repro.service.chaos import cli_chaos_serve

    return cli_chaos_serve(args)


def _client_errors(func):
    """Turn server/connection failures into friendly ConfigErrors."""
    from functools import wraps

    @wraps(func)
    def wrapper(args: argparse.Namespace) -> int:
        from repro.client import ServiceError

        try:
            return func(args)
        except ServiceError as exc:
            raise ConfigError(f"server at {args.url}: {exc}")
        except (ConnectionError, OSError) as exc:
            raise ConfigError(
                f"cannot reach job server at {args.url} ({exc}); "
                f"is `repro serve` running?"
            )

    return wrapper


@_client_errors
def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a campaign file to a running server via the client."""
    import json as _json

    from repro.client import Session

    try:
        document = _json.loads(Path(args.campaign).read_text(encoding="utf-8"))
    except (OSError, _json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read campaign {args.campaign}: {exc}")
    with Session(args.url, tenant=args.tenant) as session:
        campaign = session.submit_campaign(
            document, priority=args.priority
        )
        logger.info("campaign %s (%s): %d job(s) submitted to %s",
                    campaign.id, campaign.name, campaign.data["jobs"],
                    args.url)
        if not args.follow:
            print(f"{campaign.id} {campaign.name}: {campaign.data['jobs']} "
                  f"job(s) submitted")
            return 0
        for event in campaign.stream():
            if event.terminal:
                break
            state = "cached" if event.from_cache else event.status
            logger.info("%s %s (%.1fs)", state, event.label, event.elapsed_s)
        campaign.refresh()
        jobs = campaign.jobs.all()
    rows = []
    failures = 0
    for job in jobs:
        m = job.metrics
        if job.status in ("ok", "cached") and m is not None:
            rows.append(
                (job.label, job.status, m["mean_latency"], m["throughput"],
                 f"{m['delivered']}/{m['injected']}")
            )
        else:
            failures += job.status == "failed"
            rows.append((job.label, job.status, "-", "-", "-"))
    print()
    print(format_table(
        ["job", "status", "mean latency", "throughput", "delivered"], rows
    ))
    counts = campaign.counts
    print(f"\n{campaign.status}: {counts.get('ok', 0)} ran, "
          f"{counts.get('cached', 0)} cached, "
          f"{counts.get('failed', 0)} failed")
    return 0 if campaign.status == "done" else 1


@_client_errors
def cmd_jobs(args: argparse.Namespace) -> int:
    """Query campaigns/jobs on a running server."""
    from repro.client import Session

    with Session(args.url, tenant=args.tenant) as session:
        if not args.campaign and not args.status and not args.all_jobs:
            rows = [
                (c.id, c.name, c.data["tenant"], c.status,
                 c.counts.get("ok", 0) + c.counts.get("cached", 0),
                 c.data["jobs"])
                for c in session.campaigns()
            ]
            print(format_table(
                ["id", "name", "tenant", "status", "done", "jobs"], rows
            ))
            stats = session.store_stats()
            print(f"\nserver: {stats['executed']} executed, "
                  f"{stats['cache_hits']} cache hits, "
                  f"{stats['coalesced']} coalesced, "
                  f"{stats['pending']} pending "
                  f"({stats['store']['backend']} store, "
                  f"{stats['store']['records']} records)")
            return 0
        jobs = session.jobs
        if args.campaign:
            campaign = session.get_campaign(args.campaign)
            jobs = campaign.jobs
        if args.status:
            jobs = jobs.filter(status=args.status)
        rows = [
            (j.id, j.label, j.data["tenant"], j.status,
             f"{j.data['elapsed_s']:.2f}s" if j.data.get("elapsed_s")
             else "-")
            for j in jobs
        ]
    print(format_table(["id", "label", "tenant", "status", "elapsed"], rows))
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Result-store maintenance: stats, compact, convert."""
    from repro.orchestrate import copy_records

    if args.store_command == "stats":
        store = open_store(args.path)
        info = store.describe()
        rows = sorted(info.items())
        print(format_table(["field", "value"], rows))
        store.close()
        return 0
    if args.store_command == "compact":
        store = open_store(args.path)
        stats = store.compact()
        print(f"{args.path}: kept {stats.kept} record(s), "
              f"dropped {stats.dropped} superseded line(s)")
        store.close()
        return 0
    if args.store_command == "convert":
        src = open_store(args.path)
        dst = open_store(args.dest)
        copied = copy_records(src, dst)
        print(f"{args.path} -> {args.dest}: {copied} record(s) copied "
              f"({src.describe()['backend']} -> "
              f"{dst.describe()['backend']})")
        src.close()
        dst.close()
        return 0
    raise ConfigError(f"unknown store command {args.store_command!r}")


def _shipped_verify_configs() -> list[NetworkConfig]:
    """The configurations the repo ships and documents, for ``--all``."""
    return [
        NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None),
        NetworkConfig(topology="torus", dims=(4, 4), protocol="wormhole",
                      wave=None),
        NetworkConfig(topology="hypercube", dims=(2, 2, 2, 2),
                      protocol="wormhole", wave=None),
        NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None,
                      wormhole=WormholeConfig(vcs=3, routing="adaptive")),
        NetworkConfig(topology="torus", dims=(4, 4), protocol="wormhole",
                      wave=None,
                      wormhole=WormholeConfig(vcs=3, routing="adaptive")),
        NetworkConfig(dims=(4, 4), protocol="clrp"),
        NetworkConfig(topology="torus", dims=(4, 4), protocol="carp"),
        # Diameter-1 full mesh: deadlock-free with a single VC.
        NetworkConfig(topology="fullmesh", dims=(8,), protocol="wormhole",
                      wave=None, wormhole=WormholeConfig(vcs=1)),
        NetworkConfig(topology="fullmesh", dims=(8,), protocol="clrp",
                      wormhole=WormholeConfig(vcs=1)),
        # 2-ary 3-fly MIN: unidirectional stages, acyclic with one VC.
        NetworkConfig(topology="min", dims=(2, 2, 2), protocol="wormhole",
                      wave=None, wormhole=WormholeConfig(vcs=1)),
        NetworkConfig(topology="min", dims=(2, 2, 2), protocol="clrp",
                      wormhole=WormholeConfig(vcs=1)),
    ]


def _check_certificate_dir(directory: str) -> int:
    """Replay every committed certificate in a directory; 0 iff all hold."""
    from repro.verify.smt import check_certificate_files

    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        print(f"no certificates found under {directory}", file=sys.stderr)
        return 1
    failures = 0
    for path, check in check_certificate_files(paths):
        status = "ok" if check.ok else "FAIL"
        print(f"{status:4s} {path.name}: {check.detail}")
        for error in check.errors:
            print(f"       {error}")
        failures += not check.ok
    print(f"{len(paths) - failures}/{len(paths)} certificates replayed "
          "clean (no solver)")
    return 0 if not failures else 1


def cmd_verify_cdg(args: argparse.Namespace) -> int:
    """Statically prove (or refute) deadlock freedom for configurations.

    For each configuration: walk the designated dependency graph once
    from topology + routing + protocol config alone -- no simulation --
    run the resource-separation leg of Theorems 1-2 on it, climb the
    proof ladder from it, print one report naming the rung that decided,
    and emit the certificate.  Exit 0 when every checked configuration
    passes the separation leg and is provably deadlock-free (or, under
    ``--expect-cyclic``, refuted).
    """
    from repro.verify.cdg import designated_graph, separation_leg
    from repro.verify.smt import (
        certificate_slug,
        climb_ladder,
        dump_certificate,
        dump_rejection_specs,
        format_report,
    )

    if args.check_certificates:
        return _check_certificate_dir(args.check_certificates)

    if args.all:
        configs = _shipped_verify_configs()
    else:
        configs = [config_from_mapping(entry_from_args(args))]
    failures = 0
    for config in configs:
        print(f"== {config.describe()}")
        graph = designated_graph(config, args.assume_classes)
        checks = separation_leg(graph)
        report = climb_ladder(graph, args.engine)
        print(format_report(report, checks))
        if args.emit_certificates:
            slug = certificate_slug(config, args.assume_classes)
            path = dump_certificate(
                report.certificate,
                Path(args.emit_certificates) / f"{slug}.json",
            )
            print(f"  certificate -> {path}")
        if not report.deadlock_free and args.seed_fuzzer:
            if args.assume_classes is None:
                specs = dump_rejection_specs(config, args.seed_fuzzer)
                print(f"  seeded {len(specs)} fuzzer scenario(s) under "
                      f"{args.seed_fuzzer}")
            else:
                print("  (not seeding the fuzzer: --assume-classes "
                      "analyses a counterfactual discipline the runtime "
                      "does not implement)")
        # A failed separation check fails the config whichever rung
        # proved (or, under --expect-cyclic, refuted) it.
        ok = report.deadlock_free != args.expect_cyclic and all(
            check.passed for check in checks
        )
        failures += not ok
        print()
    verdict = "cyclic as expected" if args.expect_cyclic else "deadlock-free"
    print(f"{len(configs) - failures}/{len(configs)} configurations "
          f"{verdict}")
    return 0 if not failures else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Property-based protocol fuzzing under the invariant harness.

    Generates ``--budget`` randomized scenarios from ``--seed``, runs
    each through the orchestration pool with per-cycle invariant checks,
    and shrinks any failure to a minimal replayable JobSpec JSON.
    ``--replay`` re-executes one reproducer file instead.
    """
    from repro.verify.fuzz import (
        dump_reproducer,
        failure_signature,
        fuzz_campaign,
        load_spec,
    )

    if args.replay:
        spec = load_spec(args.replay)
        print(f"replaying {args.replay}: {spec.config.describe()}")
        signature = failure_signature(spec)
        if signature is None:
            print("replay passed: all invariants held")
            return 0
        print(f"replay failed: {signature}")
        return 1

    report = fuzz_campaign(
        args.budget,
        master_seed=args.seed,
        jobs=args.jobs,
        store=open_store(args.store) if args.store else None,
        timeout_s=args.job_timeout,
        shrink_failures=not args.no_shrink,
        progress=log_progress,
    )
    print(f"\nfuzz: {report.passed}/{report.budget} scenarios passed "
          f"({report.from_cache} cached), seed {report.master_seed}")
    if report.ok:
        return 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for failure in report.failures:
        path = out_dir / (
            f"fuzz-{report.master_seed}-{failure.index}-"
            f"{failure.signature}.json"
        )
        dump_reproducer(failure, path)
        shrunk = failure.shrunk
        detail = (
            f"shrunk in {shrunk.steps} steps / {shrunk.attempts} attempts"
            if shrunk is not None
            else "not shrunk"
        )
        print(f"  scenario {failure.index}: {failure.signature} ({detail})")
        print(f"    {failure.message.splitlines()[0] if failure.message else ''}")
        print(f"    reproducer: {path}")
    print(f"\n{len(report.failures)} failing scenario(s); replay with "
          f"'repro fuzz --replay <file>'")
    return 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wave-switching network simulator "
                    "(Duato/Lopez/Yalamanchili, IPPS 1997 reproduction)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="raise log verbosity (-v debug, -vv adds "
                             "logger names); give before the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_network(p: argparse.ArgumentParser) -> None:
        """What shapes the network (and so its dependency graph)."""
        p.add_argument("--topology", default="mesh",
                       choices=list(registered_topologies()))
        p.add_argument("--dims", default="8x8",
                       help="e.g. 8x8, 2x2x2x2, 16 (fullmesh), 4x4 (min)")
        p.add_argument("--vcs", type=int, default=2)
        p.add_argument("--routing", default="dor", choices=["dor", "adaptive"])
        p.add_argument("--wave-switches", type=int, default=2)
        p.add_argument("--misroute-budget", type=int, default=2)
        p.add_argument("--wave-clock-ratio", type=float, default=4.0)
        p.add_argument("--window", type=int, default=256)
        p.add_argument("--cache-size", type=int, default=8)
        p.add_argument("--replacement", default="lru",
                       choices=["lru", "lfu", "fifo", "random"])
        p.add_argument("--clrp-variant", default="standard",
                       choices=["standard", "eager_force", "single_switch",
                                "immediate_force"])

    def add_common(p: argparse.ArgumentParser) -> None:
        """The network plus what only a simulation run reads."""
        add_network(p)
        p.add_argument("--pattern", default="uniform",
                       help="uniform|transpose|bit_reversal|bit_complement|"
                            "neighbor|permutation|hotspot")
        p.add_argument("--length", type=int, default=64, help="flits/message")
        p.add_argument("--duration", type=int, default=5000,
                       help="injection window (cycles)")
        p.add_argument("--max-cycles", type=int, default=300_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--buffer-depth", type=int, default=4)
        p.add_argument("--backend", default="active",
                       choices=["reference", "active", "vectorized"],
                       help="stepping core: reference O(N) loop, or the "
                            "struct-of-arrays fast core (named active or "
                            "vectorized); bit-identical")
        p.add_argument("--deadlock-check", type=int, default=0,
                       help="check interval in cycles; 0 = off")
        p.add_argument("--progress-timeout", type=int, default=0,
                       help="livelock timeout in cycles; 0 = off")
        p.add_argument("--fault-fraction", type=float, default=0.0,
                       help="fraction of physical links to fail (static)")
        p.add_argument("--mtbf", type=int, default=0,
                       help="mean cycles between dynamic link kills "
                            "(network-wide, seeded); 0 = off")
        p.add_argument("--mttr", type=int, default=0,
                       help="cycles until a killed link heals; 0 = permanent")
        p.add_argument("--fault-schedule", default=None,
                       help="explicit fault events as "
                            "'cycle:kind:node:port,...' with kind kill|heal "
                            "(run/heatmap only)")
        p.add_argument("--reliable", action="store_true",
                       help="enable the end-to-end ack/retransmit layer")
        p.add_argument("--metrics-every", type=int, default=0,
                       help="sample observability metrics every N cycles; "
                            "0 = off")

    def add_trace_flags(p: argparse.ArgumentParser, *,
                        toggle: bool = True) -> None:
        if toggle:
            p.add_argument("--trace", action="store_true",
                           help="record a structured event trace and "
                                "export Chrome/Perfetto JSON")
        p.add_argument("--trace-limit", type=int,
                       default=DEFAULT_TRACE_LIMIT,
                       help="trace ring-buffer capacity in events "
                            "(oldest dropped first)")
        p.add_argument("--trace-out", default=None,
                       help="trace JSON output path "
                            "(default repro-trace.json)")
        p.add_argument("--metrics-out", default=None,
                       help="JSONL metrics dump path "
                            "(requires --metrics-every)")

    def add_point(p: argparse.ArgumentParser, *, protocol: str | None = None,
                  load: float | None = None) -> None:
        """The protocol and offered load, where a subcommand fixes one."""
        if protocol is not None:
            p.add_argument("--protocol", default=protocol,
                           choices=["wormhole", "clrp", "carp"])
        if load is not None:
            p.add_argument("--load", type=float, default=load,
                           help="offered load (flits/node/cycle)")

    run_p = sub.add_parser("run", help="simulate one configuration")
    add_common(run_p)
    add_trace_flags(run_p)
    add_point(run_p, protocol="clrp", load=0.2)
    run_p.set_defaults(func=cmd_run)

    trace_p = sub.add_parser(
        "trace",
        help="run one configuration fully traced and export a "
             "Perfetto-loadable Chrome trace JSON",
    )
    add_common(trace_p)
    add_trace_flags(trace_p, toggle=False)
    add_point(trace_p, protocol="clrp", load=0.2)
    trace_p.set_defaults(func=cmd_trace, trace=True)

    def add_orchestration(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial; results are "
                            "bit-identical either way)")
        p.add_argument("--store", default=None,
                       help="result store for caching/resume: a .jsonl "
                            "path or sqlite:DIR")
        p.add_argument("--job-timeout", type=float, default=None,
                       help="per-job wall-clock timeout in seconds "
                            "(enforced with --jobs >= 2)")

    sweep_p = sub.add_parser("sweep", help="throughput vs offered load")
    add_common(sweep_p)
    add_orchestration(sweep_p)
    add_point(sweep_p, protocol="clrp")
    sweep_p.add_argument("--loads", default="0.1,0.2,0.4,0.6",
                         help="comma-separated offered loads")
    sweep_p.set_defaults(func=cmd_sweep)

    cmp_p = sub.add_parser("compare", help="wormhole vs CLRP vs CARP")
    add_common(cmp_p)
    add_orchestration(cmp_p)
    add_point(cmp_p, load=0.2)
    cmp_p.set_defaults(func=cmd_compare)

    batch_p = sub.add_parser(
        "batch",
        help="run a campaign file through the orchestrator "
             "(caching + resume; see repro.orchestrate.campaign)",
    )
    batch_p.add_argument("campaign",
                         help="path to a campaign JSON file (without "
                              "--store, results go to "
                              "<campaign>.results.jsonl next to it)")
    add_orchestration(batch_p)
    batch_p.add_argument("--retries", type=int, default=1,
                         help="extra attempts for jobs whose worker crashed")
    batch_p.set_defaults(func=cmd_batch)

    chaos_p = sub.add_parser(
        "chaos",
        help="randomized fault campaign asserting zero lost messages "
             "and zero deadlocks (reliability layer forced on)",
    )
    add_common(chaos_p)
    add_orchestration(chaos_p)
    chaos_p.add_argument("--protocols", default="clrp,carp,wormhole",
                         help="comma-separated protocols to torture")
    chaos_p.add_argument("--seeds", default="0,1,2",
                         help="comma-separated seeds (one run per "
                              "protocol x seed)")
    add_point(chaos_p, load=0.1)
    chaos_p.set_defaults(func=cmd_chaos)

    cdg_p = sub.add_parser(
        "verify-cdg",
        help="statically verify deadlock freedom via the extended "
             "channel-dependency graph (no simulation)",
    )
    add_network(cdg_p)
    add_point(cdg_p, protocol="clrp")
    cdg_p.add_argument("--all", action="store_true",
                       help="check every shipped configuration instead of "
                            "the one described by the flags")
    cdg_p.add_argument("--assume-classes", type=int, default=None,
                       help="override the dateline VC-class count the "
                            "analysis assumes (e.g. 1 to demonstrate the "
                            "torus ring cycle)")
    cdg_p.add_argument("--expect-cyclic", action="store_true",
                       help="invert the verdict: exit 0 only if the config "
                            "IS refuted (CI check for the prover itself)")
    cdg_p.add_argument("--engine", default="native",
                       choices=["native", "z3"],
                       help="'native' = the exact rank engine that decides "
                            "every verdict; 'z3' = also discharge the same "
                            "constraints with z3-solver, which must agree")
    cdg_p.add_argument("--emit-certificates", metavar="DIR", default=None,
                       help="write a machine-checkable JSON certificate "
                            "per config to DIR")
    cdg_p.add_argument("--check-certificates", metavar="DIR", default=None,
                       help="replay every certificate in DIR against the "
                            "current code without a solver and exit; "
                            "nonzero on any mismatch or graph drift")
    cdg_p.add_argument("--seed-fuzzer", metavar="DIR", default=None,
                       help="for each config the prover rejects, dump "
                            "seeded stress scenarios to DIR for "
                            "'repro fuzz --replay'")
    cdg_p.set_defaults(func=cmd_verify_cdg)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="property-based protocol fuzzing under the per-cycle "
             "invariant harness, with failure shrinking",
    )
    add_orchestration(fuzz_p)
    fuzz_p.add_argument("--budget", type=int, default=25,
                        help="number of randomized scenarios to run")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="master seed; (seed, index) fully determines "
                             "each scenario")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking failures to minimal "
                             "reproducers")
    fuzz_p.add_argument("--out", default="fuzz-failures",
                        help="directory for reproducer JSON files")
    fuzz_p.add_argument("--replay", default=None,
                        help="replay one reproducer JSON file under the "
                             "harness instead of fuzzing")
    fuzz_p.set_defaults(func=cmd_fuzz)

    serve_p = sub.add_parser(
        "serve",
        help="run the async HTTP job server (submission, dedup, "
             "streaming, fair multi-tenant scheduling)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="listen port (0 = ephemeral)")
    serve_p.add_argument("--store", default="sqlite:repro-store",
                         help="result store: sqlite:DIR (sharded) or a "
                              ".jsonl path")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="concurrent job executions")
    serve_p.add_argument("--executor", default="process",
                         choices=["process", "thread"],
                         help="job execution backend (thread is for "
                              "tests/containers without fork headroom)")
    serve_p.add_argument("--max-inflight", type=int, default=None,
                         help="per-tenant cap on concurrently running "
                              "jobs (default: unlimited)")
    serve_p.add_argument("--rate", type=float, default=None,
                         help="per-tenant execution rate limit in "
                              "jobs/second (token bucket)")
    serve_p.add_argument("--burst", type=int, default=4,
                         help="token-bucket burst size for --rate")
    serve_p.add_argument("--journal", default=None,
                         help="campaign journal path, or 'off' to disable "
                              "(default: derived from the store path)")
    serve_p.add_argument("--resume", action="store_true",
                         help="replay the journal on startup: restore "
                              "campaign history and re-queue unfinished "
                              "work from a previous (possibly crashed) run")
    serve_p.add_argument("--job-timeout", type=float, default=None,
                         help="per-job execution timeout in seconds "
                              "(default: none)")
    serve_p.add_argument("--retries", type=int, default=1,
                         help="re-admissions per job after worker "
                              "crashes (default: 1)")
    serve_p.add_argument("--drain-timeout", type=float, default=30.0,
                         help="seconds to wait for running jobs on "
                              "SIGTERM/stop (0 = abort immediately)")
    serve_p.set_defaults(func=cmd_serve)

    chaos_serve_p = sub.add_parser(
        "chaos-serve",
        help="crash-safety smoke: drive a real `repro serve` through "
             "scripted SIGKILLs + --resume restarts and a worker kill, "
             "asserting exactly-once results bit-identical to serial",
    )
    chaos_serve_p.add_argument("--jobs", type=int, default=8,
                               help="campaign size (seed grid)")
    chaos_serve_p.add_argument("--duration", type=int, default=10_000,
                               help="workload duration per job (bigger = "
                                    "longer jobs = kills land mid-run)")
    chaos_serve_p.add_argument("--port", type=int, default=None,
                               help="server port (default: ephemeral)")
    chaos_serve_p.add_argument("--workdir", default=None,
                               help="scratch directory (default: a fresh "
                                    "temp dir; keeps logs/stores for "
                                    "inspection)")
    chaos_serve_p.add_argument("--timeout", type=float, default=180.0,
                               help="overall scenario deadline in seconds")
    chaos_serve_p.add_argument("--no-worker-kill", action="store_true",
                               help="skip the worker-process kill phase")
    chaos_serve_p.set_defaults(func=cmd_chaos_serve)

    submit_p = sub.add_parser(
        "submit",
        help="submit a campaign file to a running job server and "
             "stream its progress (client-side `repro batch`)",
    )
    submit_p.add_argument("campaign", help="path to a campaign JSON file")
    submit_p.add_argument("--url", default="http://127.0.0.1:8642",
                          help="job server base URL")
    submit_p.add_argument("--tenant", default=None,
                          help="tenant identity for fair scheduling")
    submit_p.add_argument("--priority", type=int, default=0,
                          help="campaign priority (higher runs first "
                               "within your tenant)")
    follow_group = submit_p.add_mutually_exclusive_group()
    follow_group.add_argument("--follow", dest="follow",
                              action="store_true",
                              help="stream per-job results until the "
                                   "campaign finishes (default)")
    follow_group.add_argument("--no-follow", dest="follow",
                              action="store_false",
                              help="submit and exit without streaming")
    submit_p.set_defaults(func=cmd_submit, follow=True)

    jobs_p = sub.add_parser(
        "jobs",
        help="query a running job server: campaigns, job states, "
             "server/dedup statistics",
    )
    jobs_p.add_argument("--url", default="http://127.0.0.1:8642")
    jobs_p.add_argument("--tenant", default=None)
    jobs_p.add_argument("--campaign", default=None,
                        help="restrict to one campaign (id or name)")
    jobs_p.add_argument("--status", default=None,
                        help="filter by job status "
                             "(queued|running|ok|failed|cached|cancelled)")
    jobs_p.add_argument("--all-jobs", action="store_true",
                        help="list jobs across all campaigns instead of "
                             "the campaign table")
    jobs_p.set_defaults(func=cmd_jobs)

    store_p = sub.add_parser(
        "store",
        help="result-store maintenance (stats, compact, convert "
             "between JSONL and sqlite backends)",
    )
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    stats_p = store_sub.add_parser("stats", help="backend, size, shards")
    stats_p.add_argument("path", help="store path (JSONL file or "
                                      "sqlite:DIR)")
    compact_p = store_sub.add_parser(
        "compact",
        help="rewrite a JSONL store to its last-record-wins snapshot "
             "(sqlite stores VACUUM) and report dropped records",
    )
    compact_p.add_argument("path")
    convert_p = store_sub.add_parser(
        "convert", help="copy all records between store backends"
    )
    convert_p.add_argument("path", help="source store")
    convert_p.add_argument("dest", help="destination store")
    store_p.set_defaults(func=cmd_store)

    heat_p = sub.add_parser("heatmap",
                            help="link-load heat map of one run (2-D mesh)")
    add_common(heat_p)
    add_trace_flags(heat_p)
    add_point(heat_p, protocol="wormhole", load=0.3)
    heat_p.set_defaults(func=cmd_heatmap)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    # Bind the log handler to the *current* stdout (it may be a capture
    # or a pipe) once per invocation; progress/diagnostic lines flow
    # through the "repro" logger, report output stays on plain print.
    configure_logging(verbose=args.verbose)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
