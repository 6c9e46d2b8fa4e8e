"""One run of one workload: the command ``BENCHMARK.json`` names.

::

    python3 benchmarks/perf/run.py --workload clrp_saturation --seed 5 \\
        --seconds 10 --trace 0

Generates the workload's inputs from ``--seed``, measures the amount of
work sized for ``--seconds``, checks the outputs, and prints every
metric by name with its unit.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the end-to-end ones, measured with no
wrapper installed; with ``--trace 1`` the run is repeated with the
layer wrappers on and the metrics are the per-layer ones (a layer the
workload never calls reads 0).  The line before it, ``detail {...}``,
carries what the driver (``python -m benchmarks.perf``) aggregates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: import as the package the tests and the driver
    # use, from this checkout's own sources (never an installed copy),
    # and keep this directory's module names off the import path.
    _ROOT = Path(__file__).resolve().parents[2]
    if not (_ROOT / "src" / "repro").is_dir():
        sys.exit(f"{_ROOT} has no src/repro: this benchmark measures the "
                 "repository it is checked out in")
    sys.path[0:1] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.perf import spec  # noqa: E402


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    # Imported per workload: a sim run should not pay for (or hold in
    # memory) the service stack, and vice versa.
    if workload in ("clrp_saturation", "clrp_reuse", "wormhole_saturation"):
        from benchmarks.perf import sim as module
    elif workload == "verify_ladder":
        from benchmarks.perf import verify as module
    else:
        from benchmarks.perf import service as module
    return module.measure(workload, seed, seconds, traced)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest worker, MiB.

    Own peak is VmHWM rather than ``ru_maxrss``: the latter survives
    ``exec`` and so starts at the *launching* process's size, which
    would make a small run report whoever spawned it.  Pool workers are
    forked children, waited for by the time a workload returns; Linux
    counts both in KiB.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass  # no procfs: keep ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def digest(value) -> str:
    canonical = json.dumps(value, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def host_info() -> dict:
    return {
        "host_cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    end_to_end = dict(out["end_to_end"], peak_rss_mb=peak_rss_mb())
    per_layer = out.get("per_layer")
    problems = out["problems"]
    shown = end_to_end if per_layer is None else per_layer
    names = spec.END_TO_END_NAMES if per_layer is None else spec.PER_LAYER_NAMES
    unknown = sorted(set(shown) - set(names))
    if unknown:
        problems.append(f"metrics outside the spec: {unknown}")
    metrics = {
        name: {"value": shown.get(name, 0), "unit": spec.UNITS[name]}
        for name in names
    }
    if per_layer is None:
        problems += [
            f"{name} is not positive" for name, m in metrics.items()
            if not m["value"] > 0
        ]

    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"  ops attempted {out['attempted']} failed {out['failed']}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print("detail " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host_info(),
        "fingerprint": digest(out["fingerprint"]),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "problems": problems,
    }))
    print(json.dumps({
        "correct": out["failed"] == 0 and not problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
