"""Configuration dataclasses for networks, wormhole routers and wave switching.

Every tunable the paper mentions is a field here:

* number of wave-pipelined switches per node ``k`` (Fig. 2, S1..Sk),
* number of wormhole virtual channels ``w`` (Fig. 2, S0),
* the misroute budget ``m`` of the MB-m probe protocol,
* the wave-pipelining clock ratio (the paper's Spice simulations found
  "up to four times higher" than a wormhole router's clock),
* the channel-narrowing factor from splitting physical channels,
* the end-to-end window of the circuit flow-control protocol,
* circuit-cache capacity and replacement policy.

Configs validate on construction (``__post_init__``) so an experiment that
would silently simulate the wrong machine fails loudly instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Literal

from repro.errors import ConfigError

TopologyName = Literal["mesh", "torus", "hypercube", "fullmesh", "min"]
RoutingName = Literal["dor", "adaptive"]
ReplacementPolicyName = Literal["lru", "lfu", "fifo", "random"]
ProtocolName = Literal["clrp", "carp", "wormhole"]
# Stepping cores (bit-identical; see DESIGN.md §9):
#   reference           -- the original O(num_nodes) loop, the executable
#                          spec;
#   active / vectorized -- two names for the fast core: active-set
#                          registries plus a struct-of-arrays wormhole
#                          data path over flat channel state.
BackendName = Literal["active", "reference", "vectorized"]
# Section 3.1's simplification menu for CLRP:
#   standard        -- phase 1 tries all k switches, then phase 2 all k;
#   eager_force     -- phase 1 tries only the Initial Switch before forcing;
#   single_switch   -- both phases try only the Initial Switch;
#   immediate_force -- skip phase 1 entirely (first probe carries Force).
CLRPVariantName = Literal[
    "standard", "eager_force", "single_switch", "immediate_force"
]


class SwitchingMode(Enum):
    """How a message actually travelled, recorded per message for analysis.

    The CLRP description in section 3.1 of the paper induces exactly these
    outcomes; CARP and the wormhole-only baseline use a subset.
    """

    CIRCUIT_HIT = "circuit_hit"  # reused a pre-established circuit
    CIRCUIT_NEW = "circuit_new"  # phase 1: circuit set up with Force=0
    CIRCUIT_FORCED = "circuit_forced"  # phase 2: circuit set up with Force=1
    WORMHOLE_FALLBACK = "wormhole_fallback"  # phase 3 fallback through S0
    WORMHOLE = "wormhole"  # sent through S0 by design (baseline / CARP)
    DROPPED = "dropped"  # undeliverable: static faults cut every S0 path


@dataclass(frozen=True)
class WormholeConfig:
    """Parameters of the S0 wormhole subsystem (Fig. 1 / Fig. 2).

    Attributes:
        vcs: virtual channels per physical channel dedicated to wormhole
            switching -- the paper's ``w``.  Must cover the deadlock classes
            required by the topology/routing pair (2 for torus DOR).
        buffer_depth: flit buffer depth per virtual channel.
        routing: ``"dor"`` for deterministic dimension-order routing or
            ``"adaptive"`` for Duato-style minimal adaptive routing with
            dimension-order escape channels.
        router_delay: extra pipeline cycles charged to header routing at
            each hop (the paper notes routing delay bounds the base clock).
    """

    vcs: int = 2
    buffer_depth: int = 4
    routing: RoutingName = "dor"
    router_delay: int = 1

    def __post_init__(self) -> None:
        if self.vcs < 1:
            raise ConfigError(f"wormhole vcs must be >= 1, got {self.vcs}")
        if self.buffer_depth < 1:
            raise ConfigError(
                f"wormhole buffer_depth must be >= 1, got {self.buffer_depth}"
            )
        if self.routing not in ("dor", "adaptive"):
            raise ConfigError(f"unknown routing {self.routing!r}")
        if self.router_delay < 0:
            raise ConfigError(f"router_delay must be >= 0, got {self.router_delay}")


@dataclass(frozen=True)
class WaveConfig:
    """Parameters of the wave-pipelined circuit subsystem (S1..Sk, Fig. 2).

    Attributes:
        num_switches: the paper's ``k`` -- wave-pipelined crossbars per node,
            each with its own physical channel slice and control channel.
        misroute_budget: ``m`` of the MB-m probe protocol.
        wave_clock_ratio: wave clock / base clock.  The paper's Spice
            studies support "up to four times higher"; default 4.0.
        channel_width_factor: fraction of a full physical channel's width
            available to one circuit channel.  Splitting a channel across
            ``k`` wave switches narrows each slice; 1.0 models the
            multi-chip design (one full-width switch per chip, T3D-style).
        window: end-to-end windowing protocol window, in flits.  Must be
            deep enough to cover the ack round trip or circuits stall.
        wire_delay: base-clock cycles for a flit wavefront to cross one
            hop of an established circuit (synchronizer + wire).
        setup_hop_delay: base-clock cycles per probe/ack/control-flit hop
            on the control channels.
        circuit_cache_size: entries in each node's Circuit Cache (Fig. 5).
        replacement: policy used by CLRP when the cache is full and when
            phase 2 must pick a victim circuit.
        max_setup_retries: how many times CARP retries the full
            all-switches search before giving up on a directive.
        clrp_variant: which of section 3.1's protocol simplifications to
            run -- "standard" (both phases sweep all switches),
            "eager_force" (phase 1 tries only the Initial Switch),
            "single_switch" (both phases try only the Initial Switch) or
            "immediate_force" (phase 1 skipped; the first probe carries
            the Force bit).  "The optimal protocol depends on the number
            of physical switches per node, and on the applications" --
            benchmark E8e compares them.
    """

    num_switches: int = 2
    misroute_budget: int = 2
    wave_clock_ratio: float = 4.0
    channel_width_factor: float = 1.0
    window: int = 256
    wire_delay: int = 1
    setup_hop_delay: int = 1
    circuit_cache_size: int = 8
    replacement: ReplacementPolicyName = "lru"
    max_setup_retries: int = 1
    clrp_variant: CLRPVariantName = "standard"
    # End-point message buffers (section 2): when a circuit is
    # established, buffers are allocated at both ends and reused by every
    # message on the circuit.  CARP knows the longest message of the set;
    # CLRP allocates ``default_buffer_flits`` and pays
    # ``buffer_realloc_penalty`` cycles of messaging-layer software cost
    # whenever a longer message forces re-allocation.
    model_buffers: bool = False
    default_buffer_flits: int = 64
    buffer_realloc_penalty: int = 200

    def __post_init__(self) -> None:
        if self.num_switches < 1:
            raise ConfigError(f"num_switches must be >= 1, got {self.num_switches}")
        if self.misroute_budget < 0:
            raise ConfigError(
                f"misroute_budget must be >= 0, got {self.misroute_budget}"
            )
        if self.wave_clock_ratio <= 0:
            raise ConfigError(
                f"wave_clock_ratio must be > 0, got {self.wave_clock_ratio}"
            )
        if not 0 < self.channel_width_factor <= 1.0:
            raise ConfigError(
                "channel_width_factor must be in (0, 1], got "
                f"{self.channel_width_factor}"
            )
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.wire_delay < 1:
            raise ConfigError(f"wire_delay must be >= 1, got {self.wire_delay}")
        if self.setup_hop_delay < 1:
            raise ConfigError(
                f"setup_hop_delay must be >= 1, got {self.setup_hop_delay}"
            )
        if self.circuit_cache_size < 1:
            raise ConfigError(
                f"circuit_cache_size must be >= 1, got {self.circuit_cache_size}"
            )
        if self.replacement not in ("lru", "lfu", "fifo", "random"):
            raise ConfigError(f"unknown replacement policy {self.replacement!r}")
        if self.max_setup_retries < 0:
            raise ConfigError(
                f"max_setup_retries must be >= 0, got {self.max_setup_retries}"
            )
        if self.clrp_variant not in (
            "standard", "eager_force", "single_switch", "immediate_force"
        ):
            raise ConfigError(f"unknown clrp_variant {self.clrp_variant!r}")
        if self.default_buffer_flits < 1:
            raise ConfigError(
                f"default_buffer_flits must be >= 1, got "
                f"{self.default_buffer_flits}"
            )
        if self.buffer_realloc_penalty < 0:
            raise ConfigError(
                f"buffer_realloc_penalty must be >= 0, got "
                f"{self.buffer_realloc_penalty}"
            )

    @property
    def flits_per_cycle(self) -> float:
        """Circuit streaming rate in flits per *base* cycle.

        A circuit transfers at the wave clock over a (possibly narrowed)
        channel, so the effective rate relative to a full-width wormhole
        channel is ``wave_clock_ratio * channel_width_factor``.
        """
        return self.wave_clock_ratio * self.channel_width_factor


@dataclass(frozen=True)
class ReliabilityConfig:
    """End-to-end delivery guarantees at the network interfaces.

    When attached to a :class:`NetworkConfig`, every injected message is
    tracked at its source NI until acknowledged by the destination NI;
    on timeout it is retransmitted with capped exponential backoff, and
    after ``max_retries`` retransmissions it is reported as a
    :class:`~repro.sim.stats.DeliveryFailure` -- so under dynamic faults
    no message is ever *silently* lost.

    Attributes:
        timeout: cycles from (re)transmission to the first retry.
        backoff: multiplier applied to the timeout after each retry.
        max_timeout: cap on the backed-off timeout, which bounds the time
            to the next retransmission (this is what lets the progress
            monitor treat "blocked on fault recovery" as live).
        max_retries: retransmissions allowed before declaring failure
            (total send attempts = ``max_retries + 1``).
        ack_delay_per_hop: modelled latency of the contention-free ack
            path, cycles per hop of source-destination distance.
    """

    timeout: int = 600
    backoff: int = 2
    max_timeout: int = 4800
    max_retries: int = 6
    ack_delay_per_hop: int = 1

    def __post_init__(self) -> None:
        if self.timeout < 1:
            raise ConfigError(f"timeout must be >= 1, got {self.timeout}")
        if self.backoff < 1:
            raise ConfigError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_timeout < self.timeout:
            raise ConfigError(
                f"max_timeout ({self.max_timeout}) must be >= timeout "
                f"({self.timeout})"
            )
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.ack_delay_per_hop < 0:
            raise ConfigError(
                f"ack_delay_per_hop must be >= 0, got {self.ack_delay_per_hop}"
            )


@dataclass(frozen=True)
class NetworkConfig:
    """Complete description of one simulated machine.

    Attributes:
        topology: one of ``mesh`` / ``torus`` / ``hypercube`` /
            ``fullmesh`` / ``min``.
        dims: radix per dimension, e.g. ``(8, 8)`` for an 8x8 mesh.  For a
            hypercube use ``(2,) * n``; for a fullmesh ``(num_nodes,)``;
            for a ``min`` (k-ary n-fly butterfly) ``(k,) * n``.
        protocol: the switching protocol under test: ``"clrp"``,
            ``"carp"`` or ``"wormhole"`` (baseline: every message uses S0).
        wormhole: S0 parameters.
        wave: S1..Sk parameters; may be ``None`` only for the wormhole
            baseline.
        reliability: end-to-end ack/retransmit parameters; ``None`` (the
            default) disables the reliability layer entirely, preserving
            the raw protocol behaviour.
        seed: master RNG seed -- every stochastic decision in a run derives
            from it, making runs exactly reproducible.
        backend: stepping core ``Network.step`` binds to.  There are
            two, bit-identical on every observable (enforced by
            ``tests/integration/test_cycle_exact.py`` and the fuzzer's
            differential oracle): ``"active"`` (default) and
            ``"vectorized"`` both name the fast core -- registered
            components only, wormhole data path over struct-of-arrays
            channel state; ``"reference"`` is the plain O(num_nodes)
            executable spec over the router objects.
    """

    topology: TopologyName = "mesh"
    dims: tuple[int, ...] = (8, 8)
    protocol: ProtocolName = "clrp"
    wormhole: WormholeConfig = field(default_factory=WormholeConfig)
    wave: WaveConfig | None = field(default_factory=WaveConfig)
    seed: int = 0
    reliability: ReliabilityConfig | None = None
    backend: BackendName = "active"

    def __post_init__(self) -> None:
        if self.topology not in ("mesh", "torus", "hypercube", "fullmesh", "min"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.backend not in ("active", "reference", "vectorized"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if not self.dims:
            raise ConfigError("dims must be non-empty")
        if any(d < 2 for d in self.dims):
            raise ConfigError(f"every dimension must have radix >= 2, got {self.dims}")
        if self.topology == "hypercube" and any(d != 2 for d in self.dims):
            raise ConfigError("hypercube requires radix 2 in every dimension")
        if self.topology == "fullmesh" and len(self.dims) != 1:
            raise ConfigError(
                f"fullmesh takes a single dimension (the node count), "
                f"got {self.dims}"
            )
        if self.topology == "min" and len(set(self.dims)) != 1:
            raise ConfigError(
                f"min (k-ary n-fly) needs one radix for every stage, "
                f"got {self.dims}"
            )
        if self.protocol not in ("clrp", "carp", "wormhole"):
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.protocol != "wormhole" and self.wave is None:
            raise ConfigError(f"protocol {self.protocol!r} requires a WaveConfig")
        if self.topology == "torus" and any(d > 2 for d in self.dims):
            # Dateline deadlock avoidance for torus DOR needs two VC classes.
            if self.wormhole.vcs < 2:
                raise ConfigError(
                    "torus dimension-order routing needs >= 2 virtual "
                    f"channels for dateline classes, got {self.wormhole.vcs}"
                )

    @property
    def num_nodes(self) -> int:
        """Number of message *endpoints* (workloads size themselves by this).

        Equals the product of ``dims``: all nodes on the Cartesian family
        and fullmesh; the terminal count on a ``min``, whose internal
        switch nodes never source or sink messages.
        """
        n = 1
        for d in self.dims:
            n *= d
        return n

    def describe(self) -> str:
        """One-line human-readable summary used in reports and logs."""
        shape = "x".join(str(d) for d in self.dims)
        parts = [
            f"{shape} {self.topology}",
            f"protocol={self.protocol}",
            f"w={self.wormhole.vcs} vcs ({self.wormhole.routing})",
        ]
        if self.wave is not None:
            parts.append(
                f"k={self.wave.num_switches} wave switches "
                f"(ratio {self.wave.wave_clock_ratio:g}, m={self.wave.misroute_budget})"
            )
        return ", ".join(parts)
