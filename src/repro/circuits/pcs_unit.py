"""The PCS routing control unit's status registers (Fig. 3 of the paper).

One :class:`PCSControlUnit` per node.  For every output control channel
``(port, switch)`` it tracks:

* **Channel Status** -- free / reserved.  The paper extends the register
  with a third value, *faulty*; here link faults live in one place, the
  :class:`~repro.topology.faults.FaultSet` the plane consults, so a
  channel on a dead link keeps its register and is skipped by the walk;
* **Ack Returned** -- whether the path-setup acknowledgment has passed
  through this channel (a circuit may only be force-released after this);
* **Direct / Reverse Channel Mappings** -- for circuits crossing this
  node, which input channel maps to which output channel and back (the
  reverse path carries acknowledgments and release requests);
* **History Store** -- per probe, the output links already searched from
  this node, so backtracking probes never search the same path twice
  (the livelock-freedom argument of Theorems 3 and 4).
"""

from __future__ import annotations

from enum import Enum

from repro.errors import ProtocolError


class ChannelStatus(Enum):
    FREE = "free"
    RESERVED = "reserved"


class ChannelRegisters:
    """Registers for one output control/data channel pair."""

    __slots__ = ("status", "circuit_id", "ack_returned")

    def __init__(self) -> None:
        self.status = ChannelStatus.FREE
        self.circuit_id: int | None = None
        self.ack_returned = False


class PCSControlUnit:
    """Status registers of one node's PCS routing control unit.

    Channels are addressed by ``(port, switch)`` with ``port`` a physical
    output port of the node and ``switch`` in ``[1, k]`` (stored 0-based
    as ``0..k-1``).
    """

    def __init__(self, node: int, num_ports: int, num_switches: int) -> None:
        self.node = node
        self.num_ports = num_ports
        self.num_switches = num_switches
        # Flat registers, indexed port * num_switches + switch (port-major,
        # switch-minor, like the old dict's insertion order).  The plane's
        # probe and control-flit loops index this list directly, with
        # ports out of its validated PortTables, and hand any register in
        # an unexpected state to the checked accessor below, which raises;
        # everyone else goes through the range-checked accessors.
        self.regs: list[ChannelRegisters] = [
            ChannelRegisters() for _ in range(num_ports * num_switches)
        ]
        # Direct mapping: input (port, switch) -> output (port, switch) of
        # the circuit crossing this node; reverse mapping is the inverse.
        self.direct_map: dict[tuple[int, int], tuple[int, int]] = {}
        self.reverse_map: dict[tuple[int, int], tuple[int, int]] = {}
        # History Store: probe id -> output ports already searched here
        # (read and written directly by the probe loop, like ``regs``).
        self.history_store: dict[int, set[int]] = {}

    # -- channel status ----------------------------------------------------

    def _reg(self, port: int, switch: int) -> ChannelRegisters:
        if 0 <= port < self.num_ports and 0 <= switch < self.num_switches:
            return self.regs[port * self.num_switches + switch]
        raise ProtocolError(
            f"node {self.node} has no channel (port={port}, switch={switch})"
        )

    def status(self, port: int, switch: int) -> ChannelStatus:
        return self._reg(port, switch).status

    def owner(self, port: int, switch: int) -> int | None:
        return self._reg(port, switch).circuit_id

    def ack_returned(self, port: int, switch: int) -> bool:
        return self._reg(port, switch).ack_returned

    def reserve(self, port: int, switch: int, circuit_id: int) -> None:
        reg = self._reg(port, switch)
        if reg.status is not ChannelStatus.FREE:
            raise ProtocolError(
                f"node {self.node} channel ({port},{switch}) not free: "
                f"{reg.status.value} (owner {reg.circuit_id})"
            )
        reg.status = ChannelStatus.RESERVED
        reg.circuit_id = circuit_id
        reg.ack_returned = False

    def release(self, port: int, switch: int, circuit_id: int) -> None:
        reg = self._reg(port, switch)
        if reg.status is not ChannelStatus.RESERVED or reg.circuit_id != circuit_id:
            raise ProtocolError(
                f"node {self.node} channel ({port},{switch}) not held by "
                f"circuit {circuit_id} (status {reg.status.value}, "
                f"owner {reg.circuit_id})"
            )
        reg.status = ChannelStatus.FREE
        reg.circuit_id = None
        reg.ack_returned = False

    def set_ack_returned(self, port: int, switch: int, circuit_id: int) -> None:
        reg = self._reg(port, switch)
        if reg.circuit_id != circuit_id:
            raise ProtocolError(
                f"ack for circuit {circuit_id} crossed channel "
                f"({port},{switch}) at node {self.node} owned by "
                f"{reg.circuit_id}"
            )
        reg.ack_returned = True

    # -- channel mappings ----------------------------------------------------

    def map_through(
        self,
        in_key: tuple[int, int] | None,
        out_key: tuple[int, int],
    ) -> None:
        """Record the direct/reverse mapping for a circuit hop.

        ``in_key`` is ``(input port, switch)`` as seen at this node (None
        at the circuit's source node, where the circuit begins locally).
        """
        if in_key is not None:
            self.direct_map[in_key] = out_key
            self.reverse_map[out_key] = in_key

    def unmap_through(self, out_key: tuple[int, int]) -> None:
        in_key = self.reverse_map.pop(out_key, None)
        if in_key is not None:
            self.direct_map.pop(in_key, None)

    def next_hop(self, in_key: tuple[int, int]) -> tuple[int, int] | None:
        """Direct mapping lookup: where does the circuit go from here?"""
        return self.direct_map.get(in_key)

    def prev_hop(self, out_key: tuple[int, int]) -> tuple[int, int] | None:
        """Reverse mapping lookup: where did the circuit come from?"""
        return self.reverse_map.get(out_key)

    # -- history store ----------------------------------------------------

    def searched(self, probe_id: int, port: int) -> bool:
        return port in self.history_store.get(probe_id, ())

    def record_search(self, probe_id: int, port: int) -> None:
        self.history_store.setdefault(probe_id, set()).add(port)

    def clear_history(self, probe_id: int) -> None:
        """Forget a finished probe (registers are recycled in hardware)."""
        self.history_store.pop(probe_id, None)

    # -- introspection ----------------------------------------------------

    def free_channels(self, switch: int) -> list[int]:
        k = self.num_switches
        return [
            p
            for p in range(self.num_ports)
            if self.regs[p * k + switch].status is ChannelStatus.FREE
        ]

    def reserved_channels(self) -> list[tuple[int, int]]:
        k = self.num_switches
        return [
            divmod(i, k)
            for i, reg in enumerate(self.regs)
            if reg.status is ChannelStatus.RESERVED
        ]
