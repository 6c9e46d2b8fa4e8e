"""The three service workloads: closed loops, one client, one connection.

The load generator is this process's main thread; the server runs on a
:class:`~repro.service.server.ServiceThread` with a process executor of
``max(1, host_cpus - 1)`` workers, a sqlite store and the journal on,
under a scratch directory inside this benchmark's ``out/``.  Every
served result is compared with what a direct ``run_jobs`` /
``execute_job`` of the same spec returns -- which is also the
alternative path whose throughput the run reports.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from repro.client import Session
from repro.orchestrate import (
    JobSpec,
    ResultStore,
    SqliteResultStore,
    WorkloadRecipe,
    build_workload,
    execute_job,
    parse_campaign,
    run_jobs,
)
from repro.service.server import ServiceConfig, ServiceThread
from repro.sim.config import NetworkConfig, WormholeConfig
from repro.topology import build_topology

from benchmarks.perf.spec import OUT_DIR, RUN_SECONDS
from benchmarks.perf.stats import percentile, tail_quantile
from benchmarks.perf.trace import Tracer

WORKERS = max(1, (os.cpu_count() or 1) - 1)
LOADS = [0.05, 0.1, 0.2]
COLD_SEEDS_PER_LOAD = 80  # x 3 loads = 240 jobs at RUN_SECONDS
WARM_SEEDS_PER_LOAD = 20  # x 3 loads = 60 jobs, fixed
WARM_RESUBMITS = 80  # at RUN_SECONDS
WARM_TENANTS = 8
# Direct cache resolution is ~50x cheaper per job than a served one, so
# the alternative path repeats more to be timed over a comparable span.
WARM_DIRECT_PASSES_PER_RESUBMIT = 10
ROUNDTRIP_WARMUP = 20
ROUNDTRIP_JOBS = 400  # at RUN_SECONDS
START_SAMPLES = 15  # ~2 ms each
POPULATE_SAMPLES = 3
HEALTH_REQUESTS = 200
STORE_PASS_RECORDS = 2000
WAIT_TIMEOUT_S = 150.0


def scaled(count: int, seconds: float) -> int:
    return max(1, round(count * seconds / RUN_SECONDS))


def campaign_document(name: str, seed: int, seeds_per_load: int) -> dict:
    """A CLRP load sweep on a 4x4 mesh; job seeds derive from ``seed``."""
    return {
        "name": name,
        "defaults": {
            "topology": "mesh", "dims": "4x4", "protocol": "clrp",
            "max_cycles": 60_000,
            "workload": {"kind": "uniform", "load": 0.05, "length": 32,
                         "duration": 1500},
        },
        "grid": {
            "workload.load": LOADS,
            "seed": [seed * 10_000 + i for i in range(seeds_per_load)],
        },
    }


def tiny_specs(seed: int, count: int, first: int = 0) -> list[JobSpec]:
    """Distinct smallest-request jobs: per-request cost dominates."""
    return [
        JobSpec(
            config=NetworkConfig(
                dims=(4, 4), protocol="wormhole", wave=None,
                wormhole=WormholeConfig(), seed=seed * 10_000 + first + i,
            ),
            workload=WorkloadRecipe.make(
                "uniform", load=0.05, length=8, duration=200
            ),
            label=f"tiny-{first + i}",
            max_cycles=20_000,
        )
        for i in range(count)
    ]


def canonical(metrics) -> str:
    return json.dumps(metrics, sort_keys=True)


@contextmanager
def scratch_dir():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        yield Path(tmp)


@contextmanager
def running_server(root: Path):
    """A fresh server over its own store; yields it and its start time."""
    config = ServiceConfig(
        port=0, store=f"sqlite:{root}", workers=WORKERS, executor="process",
    )
    thread = ServiceThread(config)
    start = perf_counter()
    thread.start()
    start_s = perf_counter() - start
    try:
        yield thread, start_s
    finally:
        thread.stop()


def start_samples(tmp: Path, count: int) -> list[float]:
    """``ServiceThread.start()`` on throwaway servers (set-up repeats)."""
    samples = []
    for i in range(count):
        with running_server(tmp / f"throwaway-{i}") as (_, start_s):
            samples.append(start_s)
    return samples


def client_span(tracer: Tracer | None, name: str):
    return tracer.span(name, client=True) if tracer else nullcontext()


def instrument(thread: ServiceThread, session: Session,
               tracer: Tracer) -> None:
    """One span per wrapped server call, reached through the live
    server's state; set before the first request, so no call races it."""
    state = thread.server.state
    tracer.wrap(state, "submit", "service.submit", span=True)
    tracer.wrap(state, "finish", "service.finish", span=True)
    tracer.wrap(state.scheduler, "acquire", "service.scheduler_acquire",
                span=True)
    tracer.wrap(state.journal, "append", "service.journal_append", span=True)
    tracer.wrap(state.store, "record", "orchestrate.store_record", span=True)
    tracer.wrap(state.store, "get", "orchestrate.store_get", span=True)
    tracer.wrap(session._transport, "request", "client.requests")
    tracer.wrap(session._transport, "stream", "client.requests")


def submit_and_wait(session: Session, tracer: Tracer | None, *,
                    document: dict | None = None, specs=None,
                    name: str = "specs", tenant: str | None = None):
    with client_span(tracer, "client.submit"):
        if document is not None:
            campaign = session.submit_campaign(document, tenant=tenant)
        else:
            campaign = session.submit_specs(specs, name=name, tenant=tenant)
    with client_span(tracer, "client.stream"):
        return campaign.wait(timeout=WAIT_TIMEOUT_S)


def fetch_results(campaign, tracer: Tracer | None) -> list[dict]:
    with client_span(tracer, "client.results"):
        return campaign.results()


def mismatches(rows: list[dict], truth: dict[str, str]) -> int:
    """Served rows that are not ok or not bit-identical to direct runs."""
    return sum(
        1 for row in rows
        if row["status"] not in ("ok", "cached")
        or canonical(row["metrics"]) != truth.get(row["key"])
    )


class Counters:
    """Server-side counters over one timed section (read, not wrapped)."""

    def __init__(self, thread: ServiceThread) -> None:
        self.state = thread.server.state
        self.before = self.read()

    def read(self) -> dict:
        state = self.state
        return {
            "executed": state.executed,
            "cache_hits": state.cache_hits,
            "journal_bytes": state.journal.describe()["bytes"],
        }

    def delta(self) -> dict:
        return {k: v - self.before[k] for k, v in self.read().items()}


# -- campaign_cold --------------------------------------------------------


def campaign_cold(seed: int, seconds: float, tracer: Tracer | None) -> dict:
    document = campaign_document(
        f"cold-{seed}", seed, scaled(COLD_SEEDS_PER_LOAD, seconds)
    )
    start = perf_counter()
    _, specs = parse_campaign(document)
    parse_s = perf_counter() - start
    jobs = len(specs)
    with scratch_dir() as tmp:
        # (a) what `repro batch` does.
        store = ResultStore(tmp / "batch.results.jsonl")
        start = perf_counter()
        outcomes = run_jobs(specs, jobs=WORKERS, store=store)
        batch_s = perf_counter() - start
        truth = {
            s.key(): canonical(o.metrics) for s, o in zip(specs, outcomes)
        }
        failed = sum(1 for o in outcomes if not o.ok)

        # (b) the same document through a fresh server.
        setups = start_samples(tmp, START_SAMPLES - 1)
        with running_server(tmp / "served") as (thread, start_s):
            setups.append(start_s)
            session = Session(thread.url, tenant="bench")
            if tracer is not None:
                instrument(thread, session, tracer)
                tracer.tag = document["name"]
            counters = Counters(thread)
            start = perf_counter()
            campaign = submit_and_wait(session, tracer, document=document)
            served_s = perf_counter() - start
            delta = counters.delta()
            rows = fetch_results(campaign, tracer)
            health_us = health_latency_us(thread) if tracer else 0.0
        if campaign.status != "done" or len(rows) != jobs:
            failed += jobs
        else:
            failed += mismatches(rows, truth)
    return {
        "attempted": 2 * jobs,
        "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "work_per_s": jobs / served_s,
            "alt_path_work_per_s": jobs / batch_s,
        },
        "fingerprint": truth,
        "served_s": served_s,
        "jobs": jobs,
        "executed_s": sum(row["elapsed_s"] for row in rows),
        "specs": specs,
        "parse_s": parse_s,
        "delta": delta,
        "health_us": health_us,
    }


# -- campaign_warm --------------------------------------------------------


def populate(thread: ServiceThread, document: dict) -> tuple[Session, float]:
    """Execute the campaign once so every later submission is a hit."""
    session = Session(thread.url, tenant="populate")
    start = perf_counter()
    campaign = submit_and_wait(session, None, document=document)
    seconds = perf_counter() - start
    if campaign.status != "done":
        raise RuntimeError(f"populate campaign ended {campaign.status!r}")
    return session, seconds


def campaign_warm(seed: int, seconds: float, tracer: Tracer | None) -> dict:
    document = campaign_document(f"warm-{seed}", seed, WARM_SEEDS_PER_LOAD)
    start = perf_counter()
    _, specs = parse_campaign(document)
    parse_s = perf_counter() - start
    jobs = len(specs)
    resubmits = scaled(WARM_RESUBMITS, seconds)
    with scratch_dir() as tmp:
        # The direct store's populating pass doubles as the truth.
        store = ResultStore(tmp / "direct.results.jsonl")
        outcomes = run_jobs(specs, jobs=WORKERS, store=store)
        truth = {
            s.key(): canonical(o.metrics) for s, o in zip(specs, outcomes)
        }
        failed = sum(1 for o in outcomes if not o.ok)
        passes = resubmits * WARM_DIRECT_PASSES_PER_RESUBMIT
        start = perf_counter()
        for _ in range(passes):
            cached = run_jobs(specs, jobs=WORKERS, store=store)
            failed += sum(1 for o in cached if not o.from_cache)
        direct_s = perf_counter() - start

        # Set-up here is start + populate, the cost moved out of the
        # timed section; sampled on throwaway servers too.
        setups = []
        for i in range(POPULATE_SAMPLES - 1):
            with running_server(tmp / f"throwaway-{i}") as (thread, start_s):
                setups.append(start_s + populate(thread, document)[1])
        with running_server(tmp / "served") as (thread, start_s):
            session, populate_s = populate(thread, document)
            setups.append(start_s + populate_s)
            if tracer is not None:
                instrument(thread, session, tracer)
            counters = Counters(thread)
            not_cached = 0
            start = perf_counter()
            for i in range(resubmits):
                if tracer is not None:
                    tracer.tag = f"{document['name']}-{i}"
                campaign = submit_and_wait(
                    session, tracer, document=document,
                    tenant=f"tenant-{i % WARM_TENANTS}",
                )
                not_cached += jobs - campaign.counts["cached"]
            served_s = perf_counter() - start
            delta = counters.delta()
            rows = fetch_results(campaign, tracer)
            health_us = health_latency_us(thread) if tracer else 0.0
        failed += not_cached + mismatches(rows, truth)
    return {
        "attempted": resubmits * jobs,
        "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "work_per_s": resubmits * jobs / served_s,
            "alt_path_work_per_s": passes * jobs / direct_s,
        },
        "fingerprint": truth,
        "served_s": served_s,
        "jobs": resubmits * jobs,
        "executed_s": 0.0,
        "specs": specs,
        "parse_s": parse_s,
        "delta": delta,
        "health_us": health_us,
    }


# -- job_roundtrip --------------------------------------------------------


def job_roundtrip(seed: int, seconds: float, tracer: Tracer | None) -> dict:
    count = scaled(ROUNDTRIP_JOBS, seconds)
    warmup = tiny_specs(seed, ROUNDTRIP_WARMUP)
    specs = tiny_specs(seed, count, first=ROUNDTRIP_WARMUP)
    # The bare job, no service around it: the alternative path, and the
    # truth the served metrics must equal.
    start = perf_counter()
    truth = {s.key(): canonical(execute_job(s)) for s in specs}
    direct_s = perf_counter() - start
    with scratch_dir() as tmp:
        setups = start_samples(tmp, START_SAMPLES - 1)
        with running_server(tmp / "served") as (thread, start_s):
            setups.append(start_s)
            session = Session(thread.url, tenant="bench")
            for spec in warmup:  # pool forked, shard open, caches filled
                submit_and_wait(session, None, specs=[spec], name="roundtrip")
            if tracer is not None:
                instrument(thread, session, tracer)
            counters = Counters(thread)
            campaigns = []
            latencies_ms = []
            begin = perf_counter()
            for i, spec in enumerate(specs):
                if tracer is not None:
                    tracer.tag = f"roundtrip-{seed}-{i}"
                start = perf_counter()
                campaigns.append(submit_and_wait(
                    session, tracer, specs=[spec], name="roundtrip"
                ))
                latencies_ms.append((perf_counter() - start) * 1e3)
            served_s = perf_counter() - begin
            delta = counters.delta()
            rows = [
                row for campaign in campaigns
                for row in fetch_results(campaign, tracer)
            ]
            health_us = health_latency_us(thread) if tracer else 0.0
    failed = sum(1 for c in campaigns if c.status != "done")
    failed += mismatches(rows, truth) + abs(len(rows) - count)
    return {
        "attempted": count,
        "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "work_per_s": count / served_s,
            "alt_path_work_per_s": count / direct_s,
        },
        "fingerprint": truth,
        "served_s": served_s,
        "jobs": count,
        "executed_s": sum(row["elapsed_s"] for row in rows),
        "specs": specs,
        "parse_s": 0.0,
        "delta": delta,
        "health_us": health_us,
        "latencies_ms": latencies_ms,
    }


WORKLOADS = {
    "campaign_cold": campaign_cold,
    "campaign_warm": campaign_warm,
    "job_roundtrip": job_roundtrip,
}


# -- stand-alone layer passes (traced runs only) ----------------------------


def health_latency_us(thread: ServiceThread) -> float:
    """Median of bare ``GET /health`` round trips: HTTP framing alone."""
    host, port = thread.server.config.host, thread.server.port
    samples = []
    for _ in range(HEALTH_REQUESTS):
        start = perf_counter()
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/health")
            conn.getresponse().read()
        finally:
            conn.close()
        samples.append((perf_counter() - start) * 1e6)
    return statistics.median(samples)


def spec_layer_pass(specs: list[JobSpec]) -> dict:
    """Hash and build each spec once, timed from outside."""
    start = perf_counter()
    for spec in specs:
        spec.key()
    key_s = perf_counter() - start
    build_s = 0.0
    for spec in specs:
        topology = build_topology(spec.config.topology, spec.config.dims)
        start = perf_counter()
        build_workload(spec, topology)
        build_s += perf_counter() - start
    return {
        "orchestrate.spec_key_s": key_s,
        "orchestrate.spec_key_calls": len(specs),
        "orchestrate.build_workload_s": build_s,
    }


def store_pass(spec: JobSpec, metrics: dict) -> dict:
    """Record then read STORE_PASS_RECORDS records on each backend: the
    number ROADMAP asks for before choosing one durable store."""
    spec_dict = spec.to_dict()
    keys = [f"{i:032x}" for i in range(STORE_PASS_RECORDS)]
    out = {}
    with scratch_dir() as tmp:
        stores = {
            "jsonl": ResultStore(tmp / "pass.results.jsonl"),
            "sqlite": SqliteResultStore(tmp / "pass-sqlite"),
        }
        for backend, store in stores.items():
            start = perf_counter()
            for key in keys:
                store.record(key, spec_dict=spec_dict, status="ok",
                             metrics=metrics, campaign="pass")
            record_s = perf_counter() - start
            start = perf_counter()
            for key in keys:
                store.get(key)
            get_s = perf_counter() - start
            store.close()
            per = 1e6 / STORE_PASS_RECORDS
            out[f"orchestrate.store_{backend}_record_us"] = record_s * per
            out[f"orchestrate.store_{backend}_get_us"] = get_s * per
    return out


def layers(name: str, run: dict, tracer: Tracer, untraced: dict) -> dict:
    jobs, served_s = run["jobs"], run["served_s"]
    delta = run["delta"]
    resolved = delta["cache_hits"] + delta["executed"]
    out = {
        "orchestrate.parse_campaign_s": run["parse_s"],
        "orchestrate.execute_job_s": run["executed_s"],
        "orchestrate.store_record_s": tracer.seconds("orchestrate.store_record"),
        "orchestrate.store_record_calls": tracer.calls("orchestrate.store_record"),
        "orchestrate.store_get_s": tracer.seconds("orchestrate.store_get"),
        "orchestrate.store_get_calls": tracer.calls("orchestrate.store_get"),
        "service.submit_s": tracer.seconds("service.submit"),
        "service.finish_s": tracer.seconds("service.finish"),
        "service.scheduler_acquire_s": tracer.seconds("service.scheduler_acquire"),
        "service.journal_append_s": tracer.seconds("service.journal_append"),
        "service.journal_append_calls": tracer.calls("service.journal_append"),
        "service.journal_bytes": delta["journal_bytes"],
        "service.dedup_hit_ratio": (
            delta["cache_hits"] / resolved if resolved else 0.0
        ),
        "service.overhead_per_job_ms": (
            (served_s - run["executed_s"] / WORKERS) / jobs * 1e3
        ),
        "service.http_health_us": run["health_us"],
        "client.submit_s": tracer.seconds("client.submit"),
        "client.stream_s": tracer.seconds("client.stream"),
        "client.results_s": tracer.seconds("client.results"),
        "client.requests": tracer.calls("client.requests"),
        "trace.overhead_ratio": served_s / untraced["served_s"],
    }
    out.update(spec_layer_pass(run["specs"]))
    if name != "job_roundtrip":
        first = next(iter(run["fingerprint"].values()))
        out.update(store_pass(run["specs"][0], json.loads(first)))
    latencies = run.get("latencies_ms")
    if latencies:
        out["client.roundtrip_p50_ms"] = statistics.median(latencies)
        q = tail_quantile(len(latencies))
        if q is not None:
            out["client.roundtrip_p95_ms"] = percentile(latencies, q)
    return out


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    run = WORKLOADS[name](seed, seconds, None)
    out = {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "end_to_end": run["end_to_end"],
        "fingerprint": run["fingerprint"],
        "problems": [],
    }
    if traced:
        tracer = Tracer()
        again = WORKLOADS[name](seed, seconds, tracer)
        tracer.dump(OUT_DIR / f"{name}-seed{seed}.spans.jsonl")
        if again["fingerprint"] != run["fingerprint"]:
            out["problems"].append("traced results differ from untraced")
        out["failed"] += again["failed"]
        out["attempted"] += again["attempted"]
        out["per_layer"] = layers(name, again, tracer, run)
    return out
