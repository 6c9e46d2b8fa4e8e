"""What the benchmark measures: workloads, metrics, bounds.

This module is the single source for ``BENCHMARK.json`` (written by
``python -m benchmarks.perf``) and for the names ``run.py`` reports.
Workload *sizes* live beside the code that runs them (``sim.py``,
``service.py``, ``verify.py``); every size there is the amount of work
for ``RUN_SECONDS`` of measuring on the 2-core sandbox the baseline was
recorded on, and scales linearly with ``--seconds``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
OUT_DIR = PERF_DIR / "out"

COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]
RUN_SECONDS = 10
DEFAULT_SEED = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float  # share of the parent's median it may worsen by


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric (and workloads) it should move


WORKLOADS = [
    Workload(
        "clrp_saturation",
        "CLRP on an 8x8 mesh past saturation: the wave plane is ~3/4 of host"
        " time and in search mode (probes, Force-bit releases); probe and"
        " control-flit work shows here, transfers do not",
    ),
    Workload(
        "clrp_reuse",
        "same network with temporal locality (~90% Circuit Cache hits): the"
        " plane streams over established circuits, so transfer scheduling"
        " shows here and probe work must leave it unchanged",
    ),
    Workload(
        "wormhole_saturation",
        "wormhole only, adaptive routing, long worms: no wave plane at all;"
        " router phases (or the vectorized core) are ~88% of the work, the"
        " bypass for every plane change",
    ),
    Workload(
        "campaign_cold",
        "a CLRP campaign executed once via run_jobs and once via the HTTP"
        " service on an empty store: pool dispatch, store writes and journal"
        " appends around real simulations",
    ),
    Workload(
        "campaign_warm",
        "the same campaign resubmitted under rotating tenants to a populated"
        " server: all dedup hits, so store reads, spec hashing, HTTP framing"
        " and streaming with zero simulation",
    ),
    Workload(
        "job_roundtrip",
        "sequential single tiny jobs against a warm server, closed loop, one"
        " client: per-request cost (HTTP, scheduler, pool hand-off, journal"
        " flush) is about half the round trip",
    ),
    Workload(
        "verify_ladder",
        "cycle search and native SMT deciders on three frozen large configs:"
        " the only workload that runs verify/, sized so the prover rather"
        " than interpreter start dominates",
    ),
]

# Every run of every workload reports every one of these, so each is
# defined for all seven.  ``work`` and the alternative path are fixed per
# workload (README.md has the table): simulated events per host second
# on the ``active`` / ``vectorized`` backends for the three sim
# workloads, jobs per second through the service / through direct
# ``run_jobs`` for the campaigns, round trips per second through the
# service / bare ``execute_job`` calls per second for ``job_roundtrip``,
# configs decided per second by the cycle search / by the native SMT
# engine for ``verify_ladder``.
END_TO_END = [
    # Median of repeated set-ups: traffic generation + Network(config);
    # ServiceThread.start() (+ populate on campaign_warm); config and
    # topology construction.  Mostly milliseconds: the largest bound.
    EndToEnd("setup_s", "s", "lower", 0.25),
    # Bounds are at least three times the widest ten-seed spread measured
    # per metric (README.md has the table): 6.8% on wormhole_saturation's
    # active backend, 4.4% on clrp_reuse's vectorized one, 2.7% for RSS.
    EndToEnd("work_per_s", "1/s", "higher", 0.22),
    EndToEnd("alt_path_work_per_s", "1/s", "higher", 0.15),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
]

_SIM = "work_per_s / alt_path_work_per_s on the sim workloads"
_PLANE = (
    "work_per_s / alt_path_work_per_s on clrp_saturation (probes, control"
    " flits) and clrp_reuse (transfers); 0 on wormhole_saturation"
)
_REGIME = "which regime a CLRP workload is in; a move is a model change"
_ROUTER = (
    "work_per_s (active) / alt_path_work_per_s (vectorized) on"
    " wormhole_saturation; small on clrp_saturation, ~0 on clrp_reuse"
)
_COLD = "work_per_s and alt_path_work_per_s on campaign_cold"
_STORE_W = _COLD + " (record path)"
_STORE_R = "work_per_s on campaign_warm (get / key path)"
_SVC = (
    "work_per_s on job_roundtrip and campaign_warm; hidden behind worker"
    " time on campaign_cold"
)
_VERIFY = "work_per_s (search) / alt_path_work_per_s (SMT) on verify_ladder"

PER_LAYER = [
    Layer("traffic.build_s", "s", "lower", "setup_s on the sim workloads"),
    Layer("network.build_s", "s", "lower", "setup_s on the sim workloads"),
    Layer("sim.run_s", "s", "lower", _SIM),
    Layer("sim.vectorized_run_s", "s", "lower", _SIM),
    Layer("sim.cycles_per_s", "1/s", "higher", _SIM),
    Layer("sim.vectorized_cycles_per_s", "1/s", "higher", _SIM),
    Layer("sim.loop_self_s", "s", "lower", _SIM),
    Layer("sim.steps", "count", "lower", _SIM),
    Layer("sim.cycles_skipped", "count", "higher", _SIM),
    Layer("network.inject_s", "s", "lower", _SIM),
    Layer("network.inject_calls", "count", "lower", _SIM),
    Layer("network.step_self_s", "s", "lower", _SIM),
    Layer("network.ni_pre_cycle_s", "s", "lower", _SIM),
    Layer("network.ni_pre_cycle_calls", "count", "lower", _SIM),
    Layer("network.work_counter", "count", "lower",
          "the numerator of work_per_s on the sim workloads; deterministic"),
    Layer("sim.mean_latency_cycles", "cycles", "lower",
          "simulated; deterministic, any move is a model change"),
    Layer("sim.accepted_flits_per_node_cycle", "flits", "higher",
          "simulated; deterministic, any move is a model change"),
    Layer("circuits.plane_step_s", "s", "lower", _PLANE),
    Layer("circuits.plane_step_calls", "count", "lower", _PLANE),
    Layer("circuits.probe_cycles", "count", "lower", _PLANE),
    Layer("circuits.control_flit_cycles", "count", "lower", _PLANE),
    Layer("circuits.transfer_cycles", "count", "lower", _PLANE),
    Layer("circuits.work_done", "count", "lower", _PLANE),
    Layer("circuits.useful_work_ratio", "ratio", "higher", _PLANE),
    Layer("circuits.probes_launched", "count", "lower", _PLANE),
    Layer("circuits.probe_hops", "count", "lower", _PLANE),
    Layer("circuits.probe_backtracks", "count", "lower", _PLANE),
    Layer("circuits.probe_success_ratio", "ratio", "higher", _PLANE),
    Layer("circuits.teardowns", "count", "lower", _PLANE),
    Layer("circuits.transfers_completed", "count", "higher", _PLANE),
    Layer("core.circuit_hit_ratio", "ratio", "higher", _REGIME),
    Layer("core.forced_establish_ratio", "ratio", "lower", _REGIME),
    Layer("core.wormhole_fallbacks", "count", "lower", _REGIME),
    Layer("wormhole.route_phase_s", "s", "lower", _ROUTER),
    Layer("wormhole.traversal_phase_s", "s", "lower", _ROUTER),
    Layer("wormhole.router_phase_calls", "count", "lower", _ROUTER),
    Layer("network.vectorized_step_s", "s", "lower", _ROUTER),
    Layer("network.vectorized_step_calls", "count", "lower", _ROUTER),
    Layer("orchestrate.parse_campaign_s", "s", "lower", _COLD),
    Layer("orchestrate.build_workload_s", "s", "lower", _COLD),
    Layer("orchestrate.execute_job_s", "s", "lower", _COLD),
    Layer("orchestrate.store_record_s", "s", "lower", _STORE_W),
    Layer("orchestrate.store_record_calls", "count", "lower", _STORE_W),
    Layer("orchestrate.store_jsonl_record_us", "us", "lower", _STORE_W),
    Layer("orchestrate.store_sqlite_record_us", "us", "lower", _STORE_W),
    Layer("orchestrate.spec_key_s", "s", "lower", _STORE_R),
    Layer("orchestrate.spec_key_calls", "count", "lower", _STORE_R),
    Layer("orchestrate.store_get_s", "s", "lower", _STORE_R),
    Layer("orchestrate.store_get_calls", "count", "lower", _STORE_R),
    Layer("orchestrate.store_jsonl_get_us", "us", "lower", _STORE_R),
    Layer("orchestrate.store_sqlite_get_us", "us", "lower", _STORE_R),
    Layer("service.submit_s", "s", "lower", _SVC),
    Layer("service.finish_s", "s", "lower", _SVC),
    Layer("service.scheduler_acquire_s", "s", "lower", _SVC),
    Layer("service.journal_append_s", "s", "lower", _SVC),
    Layer("service.journal_append_calls", "count", "lower", _SVC),
    Layer("service.journal_bytes", "bytes", "lower", _SVC),
    Layer("service.dedup_hit_ratio", "ratio", "higher", _SVC),
    Layer("service.overhead_per_job_ms", "ms", "lower", _SVC),
    Layer("service.http_health_us", "us", "lower", _SVC),
    Layer("client.submit_s", "s", "lower", _SVC),
    Layer("client.stream_s", "s", "lower", _SVC),
    Layer("client.results_s", "s", "lower", _SVC),
    Layer("client.requests", "count", "lower", _SVC),
    Layer("client.roundtrip_p50_ms", "ms", "lower",
          "work_per_s on job_roundtrip (its median form)"),
    Layer("client.roundtrip_p95_ms", "ms", "lower",
          "work_per_s on job_roundtrip (tail; too noisy to gate on)"),
    Layer("verify.search_s", "s", "lower", _VERIFY),
    Layer("verify.smt_s", "s", "lower", _VERIFY),
    Layer("verify.build_cdg_s", "s", "lower", _VERIFY),
    Layer("verify.find_cycle_s", "s", "lower", _VERIFY),
    Layer("verify.solve_ranks_s", "s", "lower", _VERIFY),
    Layer("verify.channels", "count", "lower", _VERIFY),
    Layer("verify.dependencies", "count", "lower", _VERIFY),
    Layer("verify.replay_s", "s", "lower",
          "nothing end to end (certificate replay is the run's correctness"
          " check); about equal to verify.smt_s, worth knowing"),
    Layer("trace.overhead_ratio", "ratio", "lower",
          "nothing; traced wall over untraced wall of the same run"),
]

WORKLOAD_NAMES = [w.name for w in WORKLOADS]
END_TO_END_NAMES = [m.name for m in END_TO_END]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
UNITS = {m.name: m.unit for m in [*END_TO_END, *PER_LAYER]}


def benchmark_document() -> dict:
    """``BENCHMARK.json`` in the builder contract's schema (exact keys)."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def write_benchmark_json() -> Path:
    BENCHMARK_JSON.write_text(
        json.dumps(benchmark_document(), indent=2) + "\n", encoding="utf-8"
    )
    return BENCHMARK_JSON
