"""Structural invariants tying distributed register state together.

These are the "should always hold" properties the proofs implicitly rely
on.  Tests call :func:`check_all_invariants` after (and during) every
scenario; each check raises :class:`~repro.errors.ProtocolError` with a
precise description on violation.

1. **Channel exclusivity** -- every live circuit's channels are reserved
   exactly for it in the owning node's PCS unit, and every RESERVED
   register is claimed by exactly one live circuit.
2. **Mapping consistency** -- direct and reverse channel mappings are
   mutual inverses and agree with the owning circuit's path.
3. **Ack monotonicity** -- an ESTABLISHED circuit has the Ack Returned
   bit set on *every* hop.
4. **Claim hygiene** -- every channel claim belongs to a live waiting
   probe.
5. **Cache coherence** -- every ESTABLISHED cache entry points at an
   ESTABLISHED circuit whose source and dest match the entry.
6. **Credit sanity** -- wormhole credits never exceed buffer depth and
   match downstream occupancy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.circuits.circuit import CircuitState
from repro.circuits.pcs_unit import ChannelStatus
from repro.core.base import CircuitEngineBase
from repro.core.circuit_cache import CacheEntryState
from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network


def check_channel_exclusivity(network: "Network") -> None:
    plane = network.plane
    if plane is None:
        return
    owners = plane.table.channels_in_use()  # raises on double-claim
    # Every live-circuit channel must be RESERVED for that circuit.
    for (node, port, switch), circuit_id in owners.items():
        unit = plane.units[node]
        if unit.status(port, switch) is not ChannelStatus.RESERVED:
            raise ProtocolError(
                f"circuit {circuit_id} claims ({node},{port},{switch}) but "
                f"register says {unit.status(port, switch).value}"
            )
        if unit.owner(port, switch) != circuit_id:
            raise ProtocolError(
                f"register owner mismatch at ({node},{port},{switch}): "
                f"{unit.owner(port, switch)} != {circuit_id}"
            )
    # Every RESERVED register must belong to a live circuit.
    for node, unit in enumerate(plane.units):
        for port, switch in unit.reserved_channels():
            cid = unit.owner(port, switch)
            assert cid is not None
            if (node, port, switch) not in owners:
                raise ProtocolError(
                    f"orphan reservation ({node},{port},{switch}) by "
                    f"circuit {cid}"
                )


def check_mapping_consistency(network: "Network") -> None:
    plane = network.plane
    if plane is None:
        return
    for node, unit in enumerate(plane.units):
        for in_key, out_key in unit.direct_map.items():
            back = unit.reverse_map.get(out_key)
            if back != in_key:
                raise ProtocolError(
                    f"node {node}: direct map {in_key}->{out_key} but "
                    f"reverse map says {back}"
                )
        for out_key, in_key in unit.reverse_map.items():
            fwd = unit.direct_map.get(in_key)
            if fwd != out_key:
                raise ProtocolError(
                    f"node {node}: reverse map {out_key}->{in_key} but "
                    f"direct map says {fwd}"
                )


def check_ack_monotonicity(network: "Network") -> None:
    plane = network.plane
    if plane is None:
        return
    for circuit in plane.table.circuits.values():
        if circuit.state is not CircuitState.ESTABLISHED:
            continue
        for node, port in circuit.path:
            unit = plane.units[node]
            if not unit.ack_returned(port, circuit.switch):
                raise ProtocolError(
                    f"established circuit {circuit.circuit_id} missing "
                    f"Ack Returned at ({node},{port},{circuit.switch})"
                )


def check_claim_hygiene(network: "Network") -> None:
    plane = network.plane
    if plane is None:
        return
    live_probes = {p.probe_id for p in plane.probes}
    for key, probe_id in plane.claims.items():
        if probe_id not in live_probes:
            raise ProtocolError(
                f"channel claim {key} held by finished probe {probe_id}"
            )


def check_cache_coherence(network: "Network") -> None:
    plane = network.plane
    if plane is None:
        return
    for ni in network.interfaces:
        engine = ni.engine
        if not isinstance(engine, CircuitEngineBase):
            continue
        for dest, entry in engine.cache.entries.items():
            if entry.dest != dest:
                raise ProtocolError(
                    f"node {ni.node}: cache key {dest} != entry.dest "
                    f"{entry.dest}"
                )
            if entry.state is CacheEntryState.ESTABLISHED:
                c = entry.circuit
                if c is None or c.state is not CircuitState.ESTABLISHED:
                    raise ProtocolError(
                        f"node {ni.node}: ESTABLISHED entry for dest {dest} "
                        f"with circuit {c!r}"
                    )
                if c.src != ni.node or c.dst != dest:
                    raise ProtocolError(
                        f"node {ni.node}: entry/circuit endpoint mismatch "
                        f"({c.src}->{c.dst} vs {ni.node}->{dest})"
                    )


def check_credit_sanity(network: "Network") -> None:
    network.materialize_views()
    depth = network.config.wormhole.buffer_depth
    for router in network.routers:
        for out_vcs, down in zip(router.outputs, router.downstream):
            for out in out_vcs:
                if not 0 <= out.credits <= out.max_credits:
                    raise ProtocolError(
                        f"node {router.node}: credits {out.credits} out of "
                        f"range on output ({out.port},{out.vc})"
                    )
            if down is None:
                continue
            d_router, d_port = down
            for out, ivc in zip(out_vcs, d_router.inputs[d_port]):
                occupancy = len(ivc.buffer)
                if out.credits + occupancy != depth:
                    raise ProtocolError(
                        f"credit/occupancy mismatch {router.node}->"
                        f"{d_router.node} port {out.port} vc {out.vc}: "
                        f"{out.credits} credits + {occupancy} buffered != "
                        f"{depth}"
                    )


def teardown_latency(network: "Network") -> int:
    """Upper bound on cycles until fault teardowns settle network-wide.

    A fault-triggered TEARDOWN control flit walks the circuit's remaining
    path one hop per ``setup_hop_delay`` cycles; no circuit is longer
    than twice the directed link count, so after this many quiet cycles
    every teardown launched by a kill has finished.  Zero for pure
    wormhole networks (no circuits to tear down).
    """
    if network.plane is None:
        return 0
    wave = network.plane.config
    return 2 * len(network.topology.links()) * wave.setup_hop_delay + 1


def check_fault_isolation(network: "Network") -> None:
    """No live circuit state may reference a dead link.

    Deliberately NOT part of :data:`ALL_CHECKS`: it only holds once
    :func:`teardown_latency` cycles have elapsed since the last kill
    (teardown control flits are in flight until then).  The fault-aware
    runners gate the call on that bound.
    """
    faults = network.faults
    plane = network.plane
    if faults is None or plane is None:
        return
    for circuit in plane.table.circuits.values():
        if circuit.state not in (
            CircuitState.ESTABLISHED,
            CircuitState.SETTING_UP,
        ):
            continue
        for node, port in circuit.path:
            if faults.is_faulty(node, port):
                raise ProtocolError(
                    f"{circuit.state.value} circuit {circuit.circuit_id} "
                    f"({circuit.src}->{circuit.dst}) still holds dead link "
                    f"({node},{port}) after teardown latency"
                )
    for ni in network.interfaces:
        engine = ni.engine
        if not isinstance(engine, CircuitEngineBase):
            continue
        for dest, entry in engine.cache.entries.items():
            if entry.state is not CacheEntryState.ESTABLISHED:
                continue
            c = entry.circuit
            if c is None:
                continue
            for node, port in c.path:
                if faults.is_faulty(node, port):
                    raise ProtocolError(
                        f"node {ni.node}: ESTABLISHED cache entry for dest "
                        f"{dest} references dead link ({node},{port})"
                    )


ALL_CHECKS = (
    check_channel_exclusivity,
    check_mapping_consistency,
    check_ack_monotonicity,
    check_claim_hygiene,
    check_cache_coherence,
    check_credit_sanity,
)


def check_all_invariants(network: "Network") -> None:
    """Run every structural invariant; raises on first violation."""
    for check in ALL_CHECKS:
        check(network)
