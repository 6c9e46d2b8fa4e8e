"""Workload recipe registry: from declarative spec to message stream.

Each recipe ``kind`` maps to a builder ``(spec, topology) -> list`` that
reconstructs the workload *inside the executing process* (worker or
parent) from nothing but the spec's parameters and ``config.seed``.
This is what keeps :class:`~repro.orchestrate.spec.JobSpec` picklable
and content-hashable: no message objects or closures ever travel with
the spec, except for the ``explicit`` recipe which carries plain message
tuples (the bridge from legacy callable-based sweep APIs).

The registry is open: tests and downstream code may
:func:`register_recipe` new kinds.  With the default ``fork`` start
method on Linux, recipes registered before the pool starts are visible
inside workers.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.network.message import Message, MessageFactory
from repro.orchestrate.spec import JobSpec, WorkloadRecipe
from repro.sim.rng import SimRandom
from repro.topology.base import Topology
from repro.traffic.patterns import make_pattern
from repro.traffic.workloads import (
    all_to_all_workload,
    dsm_workload,
    pair_stream_workload,
    stencil_workload,
    uniform_workload,
)

RecipeBuilder = Callable[[JobSpec, Topology], list]

_BUILDERS: dict[str, RecipeBuilder] = {}


def register_recipe(kind: str) -> Callable[[RecipeBuilder], RecipeBuilder]:
    """Register a workload builder for ``kind`` (decorator)."""

    def deco(fn: RecipeBuilder) -> RecipeBuilder:
        _BUILDERS[kind] = fn
        return fn

    return deco


def known_recipes() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def build_workload(spec: JobSpec, topology: Topology) -> list:
    """Construct the spec's message stream (sorted by creation cycle)."""
    builder = _BUILDERS.get(spec.workload.kind)
    if builder is None:
        raise ConfigError(
            f"unknown workload recipe {spec.workload.kind!r}; "
            f"known: {', '.join(known_recipes())}"
        )
    return builder(spec, topology)


# -- bridging from materialised message lists ---------------------------


def explicit_recipe(messages: list[Message]) -> WorkloadRecipe:
    """Freeze an already-built message list into a declarative recipe.

    Used to route the legacy callable-based sweep APIs through the
    orchestrator: the parent materialises the workload once, and workers
    rebuild bit-identical :class:`Message` objects (same ``msg_id``\\ s,
    so arbitration tie-breaks cannot diverge from a serial run).
    """
    rows = []
    for m in messages:
        if not isinstance(m, Message):
            raise ConfigError(
                "explicit recipes carry plain messages only; compiled "
                f"streams (got {type(m).__name__}) need a named recipe"
            )
        rows.append((m.msg_id, m.src, m.dst, m.length, m.created, m.circuit_hint))
    return WorkloadRecipe.make("explicit", messages=rows)


def materialize_spec(config, messages, **spec_kwargs) -> JobSpec:
    """Convenience: wrap ``(config, messages)`` into an explicit JobSpec."""
    return JobSpec(config=config, workload=explicit_recipe(messages), **spec_kwargs)


# -- built-in recipes ---------------------------------------------------


@register_recipe("explicit")
def _explicit(spec: JobSpec, topology: Topology) -> list:
    return [
        Message(
            msg_id=row[0],
            src=row[1],
            dst=row[2],
            length=row[3],
            created=row[4],
            circuit_hint=row[5],
        )
        for row in spec.workload.require("messages")
    ]


@register_recipe("uniform")
def _uniform(spec: JobSpec, topology: Topology) -> list:
    """Open-loop load against a named traffic pattern.

    Master RNG from ``config.seed``, pattern on the ``"pattern"``
    stream.  The CLI's ``--pattern/--load/--length/--duration`` flags
    become this recipe, so a CLI run and the equivalent campaign job
    share this one derivation.
    """
    recipe = spec.workload
    rng = SimRandom(spec.config.seed)
    pattern = make_pattern(
        str(recipe.param("pattern", "uniform")), topology, rng.stream("pattern")
    )
    return uniform_workload(
        MessageFactory(),
        pattern,
        num_nodes=topology.num_endpoints,
        offered_load=recipe.require("load"),
        length=recipe.require("length"),
        duration=recipe.require("duration"),
        rng=rng,
        start=recipe.param("start", 0),
    )


@register_recipe("pair_stream")
def _pair_stream(spec: JobSpec, topology: Topology) -> list:
    recipe = spec.workload
    return pair_stream_workload(
        MessageFactory(),
        [tuple(pair) for pair in recipe.require("pairs")],
        messages_per_pair=recipe.require("messages_per_pair"),
        length=recipe.require("length"),
        gap=recipe.require("gap"),
        start=recipe.param("start", 0),
    )


@register_recipe("stencil")
def _stencil(spec: JobSpec, topology: Topology) -> list:
    recipe = spec.workload
    return stencil_workload(
        MessageFactory(),
        topology,
        phases=recipe.require("phases"),
        phase_gap=recipe.require("phase_gap"),
        length=recipe.require("length"),
        start=recipe.param("start", 0),
    )


@register_recipe("all_to_all")
def _all_to_all(spec: JobSpec, topology: Topology) -> list:
    recipe = spec.workload
    return all_to_all_workload(
        MessageFactory(),
        topology.num_endpoints,
        rounds=recipe.require("rounds"),
        round_gap=recipe.require("round_gap"),
        length=recipe.require("length"),
        start=recipe.param("start", 0),
        stagger=recipe.param("stagger", 0),
    )


@register_recipe("dsm")
def _dsm(spec: JobSpec, topology: Topology) -> list:
    recipe = spec.workload
    return dsm_workload(
        MessageFactory(),
        topology,
        misses_per_node=recipe.require("misses_per_node"),
        request_length=recipe.param("request_length", 1),
        line_length=recipe.param("line_length", 8),
        home_window=recipe.param("home_window", 4),
        miss_gap=recipe.param("miss_gap", 25),
        memory_latency=recipe.param("memory_latency", 30),
        rng=SimRandom(spec.config.seed),
        start=recipe.param("start", 0),
    )
