"""The flat ``JobSpec.to_dict`` encoder may never drift from the dataclasses.

``to_dict`` reads field names taken once from ``dataclasses.fields`` and
``key()`` is memoised on the frozen spec.  The oracle below is the
``dataclasses.asdict``-based encoder both replaced, kept in this file
only; ``tests/corpus/spec_key_goldens.json`` holds what it produced at
2701d69 (see ``tests/corpus/gen_spec_key_goldens.py``).
"""

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orchestrate import JobSpec, WorkloadRecipe
from repro.sim.config import (
    NetworkConfig,
    ReliabilityConfig,
    WaveConfig,
    WormholeConfig,
)

GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "corpus" / "spec_key_goldens.json")
    .read_text(encoding="utf-8")
)


def oracle_to_dict(spec: JobSpec) -> dict:
    """``JobSpec.to_dict`` as it stood at 2701d69, over ``asdict``."""
    data = dataclasses.asdict(spec)
    data["config"]["dims"] = list(spec.config.dims)
    data["workload"] = spec.workload.as_dict()
    if data["config"].get("reliability") is None:
        del data["config"]["reliability"]
    if data["config"].get("backend", "active") == "active":
        data["config"].pop("backend", None)
    for name in ("mtbf", "mttr", "metrics_every", "invariants_every"):
        if not getattr(spec, name):
            del data[name]
    return data


def oracle_key(spec: JobSpec) -> str:
    data = oracle_to_dict(spec)
    data.pop("label", None)
    data["config"].pop("backend", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


# (topology, dims, vcs): one machine per topology the config accepts.
MACHINES = [
    ("mesh", (4, 4), 2),
    ("torus", (4, 4), 3),
    ("hypercube", (2, 2, 2), 2),
    ("fullmesh", (8,), 1),
    ("min", (2, 2, 2), 1),
]

zero_or = st.sampled_from([0, 1, 250])

waves = st.builds(
    WaveConfig,
    num_switches=st.integers(1, 4),
    misroute_budget=st.integers(0, 3),
    wave_clock_ratio=st.sampled_from([4.0, 2.5, 1]),
    channel_width_factor=st.sampled_from([1.0, 0.5]),
    window=st.sampled_from([256, 32]),
    circuit_cache_size=st.integers(1, 16),
    replacement=st.sampled_from(["lru", "lfu", "fifo", "random"]),
    clrp_variant=st.sampled_from(
        ["standard", "eager_force", "single_switch", "immediate_force"]
    ),
    model_buffers=st.booleans(),
)

reliabilities = st.builds(
    ReliabilityConfig,
    timeout=st.sampled_from([600, 100]),
    backoff=st.integers(1, 3),
    max_retries=st.integers(0, 8),
    ack_delay_per_hop=st.integers(0, 2),
)

recipes = st.one_of(
    st.builds(
        lambda load, length: WorkloadRecipe.make(
            "uniform", load=load, length=length, duration=300
        ),
        st.sampled_from([0.05, 0.1, 0.3]), st.sampled_from([8, 16, 64]),
    ),
    st.builds(
        lambda pairs, count: WorkloadRecipe.make(
            "pair_stream", pairs=pairs, length=32, count=count
        ),
        st.lists(
            st.lists(st.integers(0, 7), min_size=2, max_size=2), min_size=1,
            max_size=4,
        ),
        st.integers(1, 9),
    ),
    st.builds(
        lambda items: WorkloadRecipe.make("explicit", items=items),
        st.lists(
            st.lists(st.integers(0, 7), min_size=4, max_size=4), max_size=3
        ),
    ),
)


@st.composite
def specs(draw) -> JobSpec:
    topology, dims, vcs = draw(st.sampled_from(MACHINES))
    protocol = draw(st.sampled_from(["clrp", "carp", "wormhole"]))
    wave = draw(waves if protocol != "wormhole" else st.none() | waves)
    config = NetworkConfig(
        topology=topology, dims=dims, protocol=protocol,
        wormhole=WormholeConfig(
            vcs=vcs, buffer_depth=draw(st.sampled_from([4, 8])),
            routing="adaptive" if vcs == 3 else "dor",
            router_delay=draw(st.integers(0, 2)),
        ),
        wave=wave, seed=draw(st.integers(0, 1 << 30)),
        reliability=draw(st.none() | reliabilities),
        backend=draw(st.sampled_from(["active", "reference", "vectorized"])),
    )
    return JobSpec(
        config=config,
        workload=draw(recipes),
        label=draw(st.sampled_from(["", "a point", "café #3"])),
        max_cycles=draw(st.sampled_from([200_000, 999])),
        warmup=draw(zero_or),
        fault_fraction=draw(st.sampled_from([0.0, 0.05])),
        deadlock_check_interval=draw(zero_or),
        progress_timeout=draw(zero_or),
        mtbf=draw(zero_or),
        mttr=draw(zero_or),
        metrics_every=draw(zero_or),
        invariants_every=draw(zero_or),
    )


class TestEncoderMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(specs())
    def test_same_json_same_key(self, spec):
        # json.dumps keeps insertion order: key order is compared too.
        assert json.dumps(spec.to_dict()) == json.dumps(oracle_to_dict(spec))
        assert spec.key() == oracle_key(spec)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "cls", [JobSpec, NetworkConfig, WormholeConfig, WaveConfig,
                ReliabilityConfig],
    )
    def test_every_field_is_encoded(self, cls):
        """A field added to any of the five classes must reach the
        encoding (and so the content key); fails naming the field."""
        spec = JobSpec(
            config=NetworkConfig(
                dims=(4, 4), reliability=ReliabilityConfig(),
                backend="vectorized",
            ),
            workload=WorkloadRecipe.make("uniform", load=0.1),
            mtbf=1, mttr=1, metrics_every=1, invariants_every=1,
        )
        data = spec.to_dict()
        encoded = {
            JobSpec: data,
            NetworkConfig: data["config"],
            WormholeConfig: data["config"]["wormhole"],
            WaveConfig: data["config"]["wave"],
            ReliabilityConfig: data["config"]["reliability"],
        }[cls]
        for field in dataclasses.fields(cls):
            assert field.name in encoded, (
                f"{cls.__name__}.{field.name} is missing from to_dict()"
            )
        assert len(encoded) == len(dataclasses.fields(cls))

    @pytest.mark.parametrize(
        "entry", GOLDENS, ids=[entry["name"] for entry in GOLDENS]
    )
    def test_golden_json_and_key(self, entry):
        spec = JobSpec.from_dict(json.loads(entry["json"]))
        assert json.dumps(spec.to_dict()) == entry["json"]
        assert spec.key() == entry["key"]


class TestKeyMemo:
    def spec(self, **kwargs) -> JobSpec:
        return JobSpec(
            config=NetworkConfig(dims=(4, 4), seed=3),
            workload=WorkloadRecipe.make("uniform", load=0.1, length=16),
            **kwargs,
        )

    def test_hashed_once(self, monkeypatch):
        calls = []
        real = JobSpec._content_hash
        monkeypatch.setattr(
            JobSpec, "_content_hash",
            lambda self: calls.append(self) or real(self),
        )
        spec = self.spec()
        assert spec.key() == spec.key() == oracle_key(spec)
        assert len(calls) == 1

    def test_invisible_to_the_dataclass(self):
        hashed, fresh = self.spec(), self.spec()
        hashed.key()
        assert hashed == fresh
        assert hash(hashed) == hash(fresh)
        assert repr(hashed) == repr(fresh)
        assert json.dumps(hashed.to_dict()) == json.dumps(fresh.to_dict())
        assert "_key" not in {f.name for f in dataclasses.fields(hashed)}

    def test_to_dict_is_fresh_every_call(self):
        spec = self.spec()
        first = spec.to_dict()
        first["config"]["wave"]["num_switches"] = 99
        first["workload"]["load"] = 0.9
        assert spec.to_dict() == oracle_to_dict(spec)
        assert spec.key() == oracle_key(spec)

    def test_survives_pickle_to_a_worker(self):
        spec = self.spec()
        key = spec.key()
        shipped = pickle.loads(pickle.dumps(spec))
        assert shipped.__dict__["_key"] == key
        assert shipped == spec

    def test_does_not_survive_replace(self):
        spec = self.spec()
        spec.key()
        other = dataclasses.replace(spec, max_cycles=999)
        assert "_key" not in other.__dict__
        assert other.key() == oracle_key(other) != spec.key()
