"""Writes ``spec_key_goldens.json``: what ``JobSpec.to_dict`` / ``key`` gave at 2701d69.

Run **at commit 2701d69 only**, the last one whose ``to_dict`` went
through ``dataclasses.asdict``, from the repo root::

    PYTHONPATH=src python tests/corpus/gen_spec_key_goldens.py

Each entry is ``{"name", "json", "key"}``: ``json`` is
``json.dumps(spec.to_dict())`` as text, so the key *order* of the
encoding is pinned too, and ``JobSpec.from_dict(json.loads(json))``
rebuilds the spec.  The specs are every job of
``examples/campaigns/*.json`` plus generated ones that walk the five
topologies, ``wave=None``, reliability on and off, the three backends,
the omitted-when-zero run controls and list-valued recipe params.
``tests/orchestrate/test_spec_encoding.py`` replays the file.
Regenerate only with a deliberate cache-migration plan, never to make
an encoder change pass.
"""

import json
import random
from pathlib import Path

from repro.orchestrate import JobSpec, WorkloadRecipe, load_campaign
from repro.sim.config import (
    NetworkConfig,
    ReliabilityConfig,
    WaveConfig,
    WormholeConfig,
)

ROOT = Path(__file__).resolve().parents[2]
OUT = Path(__file__).resolve().parent / "spec_key_goldens.json"

GENERATED = 50

# (topology, dims, wormhole vcs): torus DOR needs two dateline classes.
MACHINES = [
    ("mesh", (4, 4), 2),
    ("mesh", (8, 8), 1),
    ("torus", (4, 4), 3),
    ("hypercube", (2, 2, 2), 2),
    ("fullmesh", (8,), 1),
    ("min", (2, 2, 2), 1),
]

RECIPES = [
    lambda rng: WorkloadRecipe.make(
        "uniform", load=rng.choice([0.05, 0.1, 0.3]), length=rng.choice([8, 64]),
        duration=rng.choice([300, 1500]),
    ),
    lambda rng: WorkloadRecipe.make(
        "uniform", pattern="neighbor", load=0.2, length=16, duration=400,
    ),
    lambda rng: WorkloadRecipe.make(
        "pair_stream", pairs=[[0, rng.randrange(1, 8)], [2, 3]], length=32,
        count=rng.randrange(1, 9),
    ),
    lambda rng: WorkloadRecipe.make(
        "explicit", items=[[0, 1, 5, 8], [rng.randrange(50), 2, 3, 16]],
    ),
]


def generated_spec(rng: random.Random, index: int) -> JobSpec:
    topology, dims, vcs = MACHINES[index % len(MACHINES)]
    protocol = rng.choice(["clrp", "carp", "wormhole"])
    wave = None
    if protocol != "wormhole" or rng.random() < 0.3:
        wave = WaveConfig(
            num_switches=rng.choice([1, 2, 3]),
            misroute_budget=rng.choice([0, 2]),
            wave_clock_ratio=rng.choice([4.0, 2.5]),
            replacement=rng.choice(["lru", "lfu", "fifo", "random"]),
            clrp_variant=rng.choice(["standard", "eager_force"]),
            model_buffers=rng.random() < 0.3,
        )
    reliability = None
    if rng.random() < 0.4:
        reliability = ReliabilityConfig(
            timeout=rng.choice([600, 300]), max_retries=rng.choice([6, 2]),
        )
    config = NetworkConfig(
        topology=topology, dims=dims, protocol=protocol,
        wormhole=WormholeConfig(
            vcs=vcs, buffer_depth=rng.choice([4, 8]),
            routing="adaptive" if vcs == 3 else "dor",
        ),
        wave=wave, seed=rng.randrange(1 << 20), reliability=reliability,
        backend=rng.choice(["active", "reference", "vectorized"]),
    )
    return JobSpec(
        config=config,
        workload=RECIPES[index % len(RECIPES)](rng),
        label=rng.choice(["", f"generated {index}"]),
        max_cycles=rng.choice([200_000, 40_000]),
        warmup=rng.choice([0, 100]),
        fault_fraction=rng.choice([0.0, 0.05]),
        deadlock_check_interval=rng.choice([0, 64]),
        progress_timeout=rng.choice([0, 20_000]),
        mtbf=rng.choice([0, 400]),
        mttr=rng.choice([0, 150]),
        metrics_every=rng.choice([0, 100]),
        invariants_every=rng.choice([0, 50]),
    )


def golden_specs() -> list[tuple[str, JobSpec]]:
    named = []
    for path in sorted((ROOT / "examples" / "campaigns").glob("*.json")):
        _, specs = load_campaign(path)
        named.extend(
            (f"{path.name}#{i}", spec) for i, spec in enumerate(specs)
        )
    rng = random.Random(19)
    named.extend(
        (f"generated#{i}", generated_spec(rng, i)) for i in range(GENERATED)
    )
    return named


def main() -> None:
    entries = [
        {"name": name, "json": json.dumps(spec.to_dict()), "key": spec.key()}
        for name, spec in golden_specs()
    ]
    OUT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} specs to {OUT}")


if __name__ == "__main__":
    main()
