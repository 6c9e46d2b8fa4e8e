"""Writes ``cli_goldens.json``: what the CLI printed and stored at addfdd1.

Run **at commit addfdd1 only**, the last one whose ``cli.py`` carried its
own copy of ``execute_job`` (``build_config``, ``build_items``,
``build_faults``, ``simulate``, ``job_spec``), from the repo root::

    PYTHONPATH=src:tests python tests/corpus/gen_cli_goldens.py

``tests/test_cli_goldens.py`` replays the file through the same
``helpers.replay_cli`` runner.  Regenerate only for a deliberate change
of what a subcommand prints or stores, never to make a CLI refactor
pass.
"""

import json
import tempfile
from pathlib import Path

from helpers import replay_cli

OUT = Path(__file__).resolve().parent / "cli_goldens.json"

SMALL = ["--dims", "4x4", "--length", "16", "--duration", "400",
         "--max-cycles", "40000"]

CAMPAIGN = {
    "name": "golden",
    "defaults": {
        "topology": "mesh", "dims": "4x4", "max_cycles": 40000,
        "warmup": 80, "deadlock_check_interval": 64,
        "workload": {"kind": "uniform", "load": 0.05, "length": 16,
                     "duration": 400},
    },
    "grid": {"protocol": ["wormhole", "clrp"], "workload.load": [0.05, 0.2]},
    "jobs": [
        {"protocol": "carp", "seed": 3, "mtbf": 300, "mttr": 150,
         "workload": {"kind": "uniform", "pattern": "neighbor", "load": 0.1,
                      "length": 16, "duration": 400}},
        {"topology": "torus", "dims": [4, 4], "protocol": "clrp",
         "wormhole": {"vcs": 3, "routing": "adaptive"},
         "wave": {"misroute_budget": 1}, "fault_fraction": 0.05,
         "metrics_every": 100, "label": "torus-adaptive"},
    ],
}

# name -> (argv, files, store)
CASES = {
    "run-clrp": (
        ["run", *SMALL, "--protocol", "clrp", "--load", "0.1"], {}, None),
    "run-carp-neighbor": (
        ["run", *SMALL, "--protocol", "carp", "--pattern", "neighbor",
         "--load", "0.15"], {}, None),
    "run-torus-adaptive-vectorized": (
        ["run", *SMALL, "--topology", "torus", "--protocol", "wormhole",
         "--routing", "adaptive", "--vcs", "3", "--backend", "vectorized",
         "--load", "0.2", "--seed", "5"], {}, None),
    "run-mtbf-reliable": (
        ["run", *SMALL, "--protocol", "clrp", "--load", "0.1",
         "--mtbf", "400", "--mttr", "200", "--reliable",
         "--deadlock-check", "64"], {}, None),
    "run-fault-schedule-reliable": (
        ["run", *SMALL, "--protocol", "clrp", "--load", "0.1", "--reliable",
         "--fault-schedule", "40:kill:5:0,120:kill:10:1,600:heal:5:0"],
        {}, None),
    "run-fault-fraction": (
        ["run", *SMALL, "--protocol", "clrp", "--load", "0.1",
         "--fault-fraction", "0.05"], {}, None),
    "run-min": (
        ["run", "--topology", "min", "--dims", "2x2x2", "--vcs", "1",
         "--protocol", "wormhole", "--load", "0.1", "--length", "8",
         "--duration", "500"], {}, None),
    "run-fullmesh-clrp-traced": (
        ["run", "--topology", "fullmesh", "--dims", "8", "--vcs", "1",
         "--protocol", "clrp", "--load", "0.1", "--length", "16",
         "--duration", "300", "--trace", "--trace-out", "run-trace.json",
         "--metrics-every", "50", "--metrics-out", "run-metrics.jsonl"],
        {}, None),
    "heatmap": (
        ["heatmap", *SMALL, "--load", "0.3"], {}, None),
    "heatmap-clrp-faulty": (
        ["heatmap", *SMALL, "--protocol", "clrp", "--load", "0.2",
         "--fault-fraction", "0.05", "--seed", "2"], {}, None),
    "trace": (
        ["trace", *SMALL, "--protocol", "clrp", "--load", "0.1",
         "--trace-out", "trace.json", "--metrics-every", "100",
         "--metrics-out", "metrics.jsonl"], {}, None),
    "trace-limit": (
        ["trace", *SMALL, "--protocol", "carp", "--pattern", "neighbor",
         "--load", "0.15", "--trace-limit", "200", "--trace-out", "t.json"],
        {}, None),
    "sweep": (
        ["sweep", *SMALL, "--protocol", "clrp", "--loads", "0.05,0.1,0.2",
         "--store", "sweep.jsonl"], {}, "sweep.jsonl"),
    "sweep-faults-metrics": (
        ["sweep", *SMALL, "--protocol", "wormhole", "--loads", "0.1,0.3",
         "--mtbf", "500", "--mttr", "100", "--fault-fraction", "0.05",
         "--reliable", "--metrics-every", "100", "--deadlock-check", "64",
         "--progress-timeout", "20000", "--store", "sqlite:sweep-store"],
        {}, "sqlite:sweep-store"),
    "compare": (
        ["compare", *SMALL, "--load", "0.1", "--pattern", "neighbor",
         "--store", "compare.jsonl"], {}, "compare.jsonl"),
    "chaos": (
        ["chaos", *SMALL, "--seeds", "0", "--protocols", "clrp,wormhole",
         "--mtbf", "400", "--mttr", "200", "--store", "chaos.jsonl"],
        {}, "chaos.jsonl"),
    "chaos-defaults": (
        ["chaos", "--dims", "4x4", "--length", "16", "--duration", "300",
         "--seeds", "1", "--protocols", "carp", "--store", "chaos.jsonl"],
        {}, "chaos.jsonl"),
    "batch": (
        ["batch", "golden.json", "--store", "batch.jsonl"],
        {"golden.json": json.dumps(CAMPAIGN, indent=2)}, "batch.jsonl"),
    "batch-default-store": (
        ["batch", "golden.json"],
        {"golden.json": json.dumps(CAMPAIGN, indent=2)},
        "golden.results.jsonl"),
    "error-mtbf-with-schedule": (
        ["run", *SMALL, "--mtbf", "400", "--fault-schedule", "40:kill:5:0"],
        {}, None),
    "error-chaos-with-schedule": (
        ["chaos", *SMALL, "--fault-schedule", "40:kill:5:0"], {}, None),
    "error-bad-schedule": (
        ["run", *SMALL, "--fault-schedule", "40:explode:5:0"], {}, None),
    "error-bad-dims": (["run", "--dims", "8y8"], {}, None),
    "error-zero-load": (["run", *SMALL, "--load", "0"], {}, None),
    "error-torus-one-vc": (
        ["sweep", *SMALL, "--topology", "torus", "--vcs", "1",
         "--protocol", "wormhole", "--loads", "0.1"], {}, None),
    "error-metrics-out-without-cadence": (
        ["run", *SMALL, "--metrics-out", "m.jsonl"], {}, None),
}


def main() -> None:
    goldens = {}
    for name, (argv, files, store) in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            expect = replay_cli(argv, files, store, workdir)
        goldens[name] = {
            "argv": argv, "files": files, "store": store, "expect": expect,
        }
        print(f"{name}: exit {expect['exit']}, "
              f"{len(expect['stdout'].splitlines())} stdout line(s), "
              f"{len(expect.get('store', ()))} record(s)")
    OUT.write_text(
        json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(goldens)} goldens -> {OUT}")


if __name__ == "__main__":
    main()
