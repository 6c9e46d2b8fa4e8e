"""The benchmark's driver: gate, interleaved fresh-process repeats, summary.

::

    PYTHONPATH=src:. python -m benchmarks.perf [--seed N] [--repeats N]
        [--workload NAME] [--traced] [--check-repeat] [--vary-seed] [--smoke]

Runs the three-backend correctness gate once, then every (workload,
repeat) as its own ``run.py`` subprocess -- one at a time, round-robin
across workloads so drift in the host hits every workload alike -- and
prints each metric as median, q1, q3, min, max, n.  Repeats share
``--seed``, so fingerprints and counts must repeat exactly; with
``--vary-seed`` repeat *r* uses ``seed + r`` instead, which is how the
builder's acceptance check measures spread.  Exits nonzero if the gate,
any run's own checks, or ``--check-repeat`` fails.  Rewrites
``BENCHMARK.json`` from ``spec.py`` (never in ``--smoke``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from benchmarks.perf import spec
from benchmarks.perf.run import host_info
from benchmarks.perf.stats import spread, summary, worsening

RUN_PY = spec.PERF_DIR / "run.py"
REPEATABILITY_JSON = spec.PERF_DIR / "repeatability.json"
SIM_WORKLOADS = ("clrp_saturation", "clrp_reuse", "wormhole_saturation")
RUN_TIMEOUT_S = 900


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.REPO_ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One fresh ``run.py`` process; returns its detail + result lines."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", str(trace)],
        cwd=spec.REPO_ROOT, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    detail = next(
        json.loads(line[len("detail "):]) for line in reversed(lines)
        if line.startswith("detail ")
    )
    detail["result"] = json.loads(lines[-1])
    return detail


def run_set(workloads, repeats, seed, seconds, vary_seed, label) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for r in range(repeats):
        for workload in workloads:
            run_seed = seed + r if vary_seed else seed
            start = time.perf_counter()
            runs[workload].append(run_once(workload, run_seed, seconds, 0))
            print(f"  {label} repeat {r + 1}/{repeats} {workload} "
                  f"seed {run_seed}: {time.perf_counter() - start:.1f}s",
                  flush=True)
    return runs


def values(runs: list[dict], metric: str) -> list[float]:
    return [run["end_to_end"][metric] for run in runs]


def check_runs(runs: dict, same_seed: bool) -> list[str]:
    problems = []
    for workload, rows in runs.items():
        for row in rows:
            if not row["result"]["correct"]:
                problems.append(
                    f"{workload} seed {row['seed']}: failed "
                    f"{row['result']['failed']} of "
                    f"{row['result']['attempted']} ops; {row['problems']}"
                )
        if same_seed and len({row["fingerprint"] for row in rows}) > 1:
            problems.append(f"{workload}: fingerprints differ across repeats")
    return problems


def print_summary(runs: dict, host: dict) -> None:
    head = (f"  {'metric':<22}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}"
            f"{'min':>14}{'max':>14}{'n':>4}{'spread':>9}{'bound':>7}")
    for workload, rows in runs.items():
        ops = rows[0]["result"]
        print(f"\n{workload}: ops_attempted {ops['attempted']} "
              f"ops_failed {sum(r['result']['failed'] for r in rows)}")
        print(head)
        for metric in spec.END_TO_END:
            s = summary(values(rows, metric.name))
            print(f"  {metric.name:<22}{metric.unit:>6}{s['median']:>14.6g}"
                  f"{s['q1']:>14.6g}{s['q3']:>14.6g}{s['min']:>14.6g}"
                  f"{s['max']:>14.6g}{s['n']:>4}"
                  f"{spread(values(rows, metric.name)):>9.2%}"
                  f"{metric.bound:>7.0%}")
        if workload == "campaign_cold":
            # The service's price over `repro batch`.  With one cpu the
            # server, its worker and the client share it, and the ratio
            # measures the scheduler, not the service.
            if host["host_cpus"] < 2:
                print("  served/batch ratio: skipped: single cpu")
            else:
                ratio = (summary(values(rows, "work_per_s"))["median"]
                         / summary(values(rows, "alt_path_work_per_s"))["median"])
                print(f"  served/batch ratio: {ratio:.3f}")


def traced_pass(workloads, seed, seconds, untraced: dict) -> tuple[dict, list]:
    """One wrapped run per workload: per-layer numbers and regime notes."""
    problems = []
    layers = {}
    for workload in workloads:
        row = run_once(workload, seed, seconds, 1)
        layers[workload] = row["per_layer"]
        if not row["result"]["correct"]:
            problems.append(f"{workload} traced run: {row['problems']}")
        if row["fingerprint"] != untraced[workload][0]["fingerprint"]:
            problems.append(
                f"{workload}: traced fingerprint differs from the timed runs"
            )
        print(f"\n{workload} per-layer (traced, seed {seed}):")
        moves = None
        for layer in spec.PER_LAYER:
            value = row["per_layer"].get(layer.name, 0)
            if not value:
                continue  # a layer this workload never calls
            if layer.moves != moves:
                moves = layer.moves
                print(f"  should move {moves}:")
            print(f"    {layer.name:<36}{value:>14.6g} {layer.unit}")
        for note in regime_notes(workload, row["per_layer"]):
            print(f"  regime: {note}")
    return layers, problems


def regime_notes(workload: str, layer: dict) -> list[str]:
    """Does the workload still stress the layer it was chosen for?
    Notes, not failures: an optimisation may legitimately move them."""
    def note(ok: bool, text: str) -> str:
        return f"{'ok' if ok else 'WARN'}: {text}"

    hit = layer.get("core.circuit_hit_ratio", 0.0)
    if workload == "clrp_saturation":
        # 75-78% at the full size (phase-3 fallbacks put long worms on
        # the routers); the issue's 90% was measured at 1/8 of it.
        share = layer["circuits.plane_step_s"] / layer["sim.run_s"]
        return [
            note(share >= 0.7, f"plane is {share:.0%} of sim.run_s (want >= 70%)"),
            note(hit <= 0.05, f"circuit hit ratio {hit:.3f} (want <= 0.05)"),
        ]
    if workload == "clrp_reuse":
        return [note(hit >= 0.8, f"circuit hit ratio {hit:.3f} (want >= 0.8)")]
    if workload == "wormhole_saturation":
        calls = layer["circuits.plane_step_calls"]
        return [note(calls == 0, f"{calls} plane calls (want 0)")]
    return []


def compare_sets(first: dict, second: dict) -> tuple[dict, list]:
    """Second set's medians against the first's, per (metric, workload)."""
    report, problems = {}, []
    print("\ncheck-repeat: second set vs first (share the second is worse)")
    for workload in first:
        for metric in spec.END_TO_END:
            a = summary(values(first[workload], metric.name))["median"]
            b = summary(values(second[workload], metric.name))["median"]
            worse = worsening(a, b, metric.better)
            within = worse <= metric.bound
            report.setdefault(metric.name, {})[workload] = {
                "first_median": a,
                "second_median": b,
                "worse_by": worse,
                "first_spread": spread(values(first[workload], metric.name)),
                "second_spread": spread(values(second[workload], metric.name)),
                "bound": metric.bound,
            }
            print(f"  {workload:<22}{metric.name:<22}{worse:>+9.2%} "
                  f"(bound {metric.bound:.0%}) {'ok' if within else 'FAIL'}")
            if not within:
                problems.append(
                    f"{workload} {metric.name}: second set worse by "
                    f"{worse:.2%}, bound {metric.bound:.0%}"
                )
    return report, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="run only this workload (default: all seven)")
    parser.add_argument("--traced", action="store_true",
                        help="also run each workload once with the layer "
                             "wrappers on and print the per-layer metrics")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two full sets back to back; fail unless "
                             "every median agrees within its bound")
    parser.add_argument("--vary-seed", action="store_true",
                        help="repeat r uses seed + r (spread across inputs)")
    parser.add_argument("--smoke", action="store_true",
                        help="1/10 size, one repeat, checks only, writes "
                             "nothing")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else spec.WORKLOAD_NAMES
    seconds = spec.RUN_SECONDS / 10 if args.smoke else spec.RUN_SECONDS
    repeats = 1 if args.smoke else args.repeats
    host = dict(host_info(), commit=commit())
    print(f"host_cpus {host['host_cpus']}  python {host['python']}  "
          f"commit {host['commit']}  seed {args.seed}  "
          f"run_seconds {seconds:g}  repeats {repeats}")

    problems = []
    if any(w in SIM_WORKLOADS for w in workloads):
        from benchmarks.perf.sim import gate

        print("gate: reference == active == vectorized at 1/8 injection ...",
              flush=True)
        problems += gate(args.seed, seconds)
        print("gate: " + ("FAILED" if problems else "ok"))

    first = run_set(workloads, repeats, args.seed, seconds, args.vary_seed,
                    "set 1")
    problems += check_runs(first, same_seed=not args.vary_seed)
    print_summary(first, host)

    layers = None
    if args.traced:
        layers, traced_problems = traced_pass(
            workloads, args.seed, seconds, first
        )
        problems += traced_problems

    repeatability = None
    if args.check_repeat:
        second = run_set(workloads, repeats, args.seed, seconds,
                         args.vary_seed, "set 2")
        problems += check_runs(second, same_seed=not args.vary_seed)
        repeatability, repeat_problems = compare_sets(first, second)
        problems += repeat_problems

    if not args.smoke:
        spec.write_benchmark_json()
        stamp = time.strftime("%Y%m%dT%H%M%S")
        results = spec.OUT_DIR / f"results-{stamp}.json"
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps({
            "host": host, "seed": args.seed, "vary_seed": args.vary_seed,
            "run_seconds": seconds,
            "end_to_end": {
                w: {m: summary(values(rows, m))
                    for m in spec.END_TO_END_NAMES}
                for w, rows in first.items()
            },
            "per_layer": layers,
            "repeatability": repeatability,
        }, indent=2) + "\n")
        print(f"\nwrote {spec.BENCHMARK_JSON.name} and {results}")
        if repeatability is not None and not args.workload:
            REPEATABILITY_JSON.write_text(json.dumps({
                "host": host, "seed": args.seed, "repeats": repeats,
                "vary_seed": args.vary_seed, "metrics": repeatability,
            }, indent=2) + "\n")
            print(f"wrote {REPEATABILITY_JSON}")

    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("benchmark: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
