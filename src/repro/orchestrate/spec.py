"""Declarative job specifications for experiment campaigns.

A :class:`JobSpec` is everything one simulation run needs, expressed as
plain picklable data: the machine (:class:`~repro.sim.config.NetworkConfig`),
a :class:`WorkloadRecipe` naming how to *build* the traffic (no closures,
no pre-built objects), and the run controls (cycle budget, measurement
warmup, fault fraction, monitors).  Because a spec is pure data it can

* cross a process boundary to a worker (the pool in :mod:`.pool`),
* be hashed into a stable content key (the cache in :mod:`.store`),
* round-trip through JSON (campaign files in :mod:`.campaign`).

Determinism contract: a spec fully determines its result.  Every source
of randomness inside a job derives from ``spec.config.seed`` via
:class:`~repro.sim.rng.SimRandom`, so executing the same spec serially,
in a worker process, or on another machine yields bit-identical metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.config import (
    NetworkConfig,
    ReliabilityConfig,
    WaveConfig,
    WormholeConfig,
)

_PRIMITIVES = (str, int, float, bool, type(None))


def _freeze(value):
    """Normalise a JSON-ish value into a hashable, canonical form."""
    if isinstance(value, _PRIMITIVES):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    raise ConfigError(
        f"workload recipe parameters must be JSON-like scalars or lists, "
        f"got {type(value).__name__}"
    )


def _thaw(value):
    """Inverse of :func:`_freeze` for JSON serialisation (tuples -> lists)."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class WorkloadRecipe:
    """A named workload constructor plus its parameters, as pure data.

    ``kind`` selects a builder from the registry in :mod:`.recipes`;
    ``params`` is a sorted tuple of ``(name, value)`` pairs so that two
    recipes with the same content compare (and hash) equal regardless of
    the order the caller supplied keyword arguments in.
    """

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def make(cls, kind: str, **params) -> "WorkloadRecipe":
        frozen = tuple(
            (name, _freeze(value)) for name, value in sorted(params.items())
        )
        return cls(kind=kind, params=frozen)

    def as_dict(self) -> dict:
        return {"kind": self.kind, **{k: _thaw(v) for k, v in self.params}}

    def param(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default

    def require(self, name: str):
        sentinel = object()
        got = self.param(name, sentinel)
        if got is sentinel:
            raise ConfigError(
                f"workload recipe {self.kind!r} requires parameter {name!r}"
            )
        return got


def recipe_from_dict(data: dict) -> WorkloadRecipe:
    """Build a recipe from a campaign-file dict: ``{"kind": ..., **params}``."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(
            f"workload must be an object with a 'kind' field, got {data!r}"
        )
    params = {k: v for k, v in data.items() if k != "kind"}
    return WorkloadRecipe.make(str(data["kind"]), **params)


@dataclass(frozen=True)
class JobSpec:
    """One fully-specified simulation run.

    Attributes:
        config: the machine under test (carries the master ``seed``).
        workload: how to build the traffic (see :mod:`.recipes`).
        label: human-readable name for reports; *excluded* from the
            content key so relabelling a campaign does not invalidate
            its cache.
        max_cycles: simulation cycle budget.
        warmup: messages delivered before this cycle are excluded from
            the throughput window (``run_experiment`` methodology).
        fault_fraction: static fraction of physical links to fail,
            derived deterministically from ``config.seed``.
        mtbf: network-wide mean cycles between dynamic link kills; 0
            (default) disables the dynamic fault campaign.  The schedule
            is derived deterministically from ``config.seed``.
        mttr: cycles until a killed link heals; 0 means faults are
            permanent.  Only meaningful with ``mtbf > 0``.
        deadlock_check_interval / progress_timeout: monitor settings,
            passed through to the :class:`~repro.sim.engine.Simulator`.
        metrics_every: sample the observability metric registry every
            this many cycles during the run; 0 (default) disables
            sampling.  Sampled jobs carry an ``observe.*`` summary in
            their result metrics.
        invariants_every: run the full per-cycle invariant harness
            (:class:`~repro.verify.fuzz.InvariantHarness`) every this
            many cycles, plus its end-of-run delivered-or-reported
            audit; 0 (default) disables it.  Fuzz jobs set this.
    """

    config: NetworkConfig
    workload: WorkloadRecipe
    label: str = ""
    max_cycles: int = 200_000
    warmup: int = 0
    fault_fraction: float = 0.0
    deadlock_check_interval: int = 0
    progress_timeout: int = 0
    mtbf: int = 0
    mttr: int = 0
    metrics_every: int = 0
    invariants_every: int = 0

    def __post_init__(self) -> None:
        if self.max_cycles < 1:
            raise ConfigError(f"max_cycles must be >= 1, got {self.max_cycles}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if not 0 <= self.fault_fraction < 1:
            raise ConfigError(
                f"fault_fraction must be in [0, 1), got {self.fault_fraction}"
            )
        if self.mtbf < 0:
            raise ConfigError(f"mtbf must be >= 0, got {self.mtbf}")
        if self.mttr < 0:
            raise ConfigError(f"mttr must be >= 0, got {self.mttr}")
        if self.metrics_every < 0:
            raise ConfigError(
                f"metrics_every must be >= 0, got {self.metrics_every}"
            )
        if self.invariants_every < 0:
            raise ConfigError(
                f"invariants_every must be >= 0, got {self.invariants_every}"
            )

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        """A fresh JSON-ready dict; field order is the dataclasses' own.

        Reads the field names taken once at import and copies no value:
        every one is frozen, so the dataclasses' own recursive,
        deep-copying converter would only re-serialise what cannot change.
        """
        config = self.config
        machine = _flat(config, _CONFIG_FIELDS)
        machine["dims"] = list(config.dims)
        machine["wormhole"] = _flat(config.wormhole, _WORMHOLE_FIELDS)
        if config.wave is not None:
            machine["wave"] = _flat(config.wave, _WAVE_FIELDS)
        # Omit disabled-by-default fields entirely: pre-existing stored
        # results keep their content-hash keys (see key()).
        if config.reliability is None:
            del machine["reliability"]
        else:
            machine["reliability"] = _flat(
                config.reliability, _RELIABILITY_FIELDS
            )
        # The stepping backend never changes results (bit-identity
        # contract), but a non-default choice is still recorded so a
        # campaign file round-trips faithfully.
        if config.backend == "active":
            del machine["backend"]
        data = _flat(self, _SPEC_FIELDS)
        data["config"] = machine
        data["workload"] = self.workload.as_dict()
        for name in _OMITTED_WHEN_ZERO:
            if not data[name]:
                del data[name]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(
            config=config_from_mapping(data["config"]),
            workload=recipe_from_dict(data["workload"]),
            label=data.get("label", ""),
            **{name: data[name] for name in RUN_FIELDS if name in data},
        )

    # -- content key ----------------------------------------------------

    def key(self) -> str:
        """Stable content hash of everything that affects the result.

        The ``label`` is cosmetic and excluded, so renaming sweep points
        still hits the cache.  The stepping ``backend`` is likewise
        excluded: all backends are bit-identical, so a result computed
        under one is valid for every other.  Uses canonical (sorted-keys)
        JSON over the spec dict and BLAKE2b, the same keyed-derivation
        primitive the simulator's RNG uses -- stable across processes and
        Python runs.

        The spec is frozen, so the digest is computed once and kept on
        the instance -- outside the dataclass fields: ``==``, ``hash``,
        ``fields()`` and ``to_dict()`` never see it, ``replace()`` builds
        a spec without it, and a pickled spec carries it to a worker.
        """
        memo = self.__dict__.get("_key")
        if memo is None:
            memo = self._content_hash()
            object.__setattr__(self, "_key", memo)
        return memo

    def _content_hash(self) -> str:
        data = self.to_dict()
        del data["label"]
        data["config"].pop("backend", None)
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _flat(obj, names: tuple[str, ...]) -> dict:
    return {name: getattr(obj, name) for name in names}


# What to_dict() encodes, read once: a field added to any of the five
# classes joins the encoding (and the content key) without an edit here.
_SPEC_FIELDS = _field_names(JobSpec)
_CONFIG_FIELDS = _field_names(NetworkConfig)
_WORMHOLE_FIELDS = _field_names(WormholeConfig)
_WAVE_FIELDS = _field_names(WaveConfig)
_RELIABILITY_FIELDS = _field_names(ReliabilityConfig)
_OMITTED_WHEN_ZERO = ("mtbf", "mttr", "metrics_every", "invariants_every")

# The run controls: every JobSpec field that is neither the machine, the
# traffic nor the cosmetic label.  Stored specs and campaign entries name
# them identically.
RUN_FIELDS = tuple(
    name for name in _SPEC_FIELDS
    if name not in ("config", "workload", "label")
)


def parse_dims(value) -> tuple[int, ...]:
    """Network dimensions from ``"8x8"`` text or a list of radices."""
    if isinstance(value, str):
        try:
            return tuple(int(part) for part in value.lower().split("x"))
        except ValueError:
            raise ConfigError(f"cannot parse dims {value!r}; expected e.g. 8x8")
    return tuple(int(v) for v in value)


def config_from_mapping(data) -> NetworkConfig:
    """The one decoder from loose data to a :class:`NetworkConfig`.

    Reads the keys named after the config's fields from ``data`` -- a
    stored spec's ``config`` object, a campaign entry, the CLI flags as
    an entry -- and ignores the rest.  ``dims`` may be ``"8x8"`` or a
    list; ``wormhole`` / ``wave`` / ``reliability`` are keyword dicts
    for their config classes.  Without a ``wave`` a wave-plane protocol
    gets the default :class:`WaveConfig` and ``wormhole`` gets none.
    """
    protocol = data.get("protocol", "clrp")
    wave = data.get("wave")
    if wave is None and protocol != "wormhole":
        wave = {}
    reliability = data.get("reliability")
    if reliability is not None:
        reliability = ReliabilityConfig(**reliability)
    return NetworkConfig(
        topology=data.get("topology", "mesh"),
        dims=parse_dims(data.get("dims", (8, 8))),
        protocol=protocol,
        wormhole=WormholeConfig(**data.get("wormhole", {})),
        wave=WaveConfig(**wave) if wave is not None else None,
        seed=int(data.get("seed", 0)),
        reliability=reliability,
        backend=data.get("backend", "active"),
    )
