"""Physical circuits and their lifecycle.

A circuit is a chain of (control channel, data channel) pairs through one
wave switch ``Si``, reserved hop by hop by a probe, confirmed by an
acknowledgment, used by any number of messages, and finally torn down by a
control flit from its source.

The :class:`CircuitTable` is a simulation-side registry for bookkeeping
and invariant checking; protocol *decisions* only ever read the per-node
PCS status registers (:mod:`repro.circuits.pcs_unit`) and the per-NI
Circuit Cache (:mod:`repro.core.circuit_cache`), mirroring what real
distributed hardware can see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ProtocolError


class CircuitState(Enum):
    SETTING_UP = "setting_up"  # probe in flight, channels partially reserved
    ESTABLISHED = "established"  # ack returned to the source; usable
    RELEASING = "releasing"  # teardown flit in flight
    DEAD = "dead"  # fully torn down (or setup abandoned)


@dataclass
class Circuit:
    """One physical circuit through wave switch ``switch``.

    ``path`` holds ``(node, out_port)`` hops from source to destination;
    the data channel of hop ``i`` is ``(path[i][0], path[i][1], switch)``.

    ``in_use`` mirrors the In-use bit of the source's Circuit Cache entry:
    set while a message is streaming (until its last end-to-end ack), and
    protecting the circuit from teardown meanwhile.
    """

    circuit_id: int
    src: int
    dst: int
    switch: int
    state: CircuitState = CircuitState.SETTING_UP
    path: list[tuple[int, int]] = field(default_factory=list)
    in_use: bool = False
    pending_release: bool = False  # release requested while in use
    established_at: int = -1
    released_at: int = -1
    uses: int = 0  # messages that have streamed over this circuit
    flits_streamed: int = 0  # payload flits carried over its lifetime
    # Hops already freed by an in-flight teardown (prefix of ``path``):
    # the teardown flit walks forward releasing channels behind it.
    released_upto: int = 0

    @property
    def length(self) -> int:
        """Hop count of the (possibly still partial) path."""
        return len(self.path)

    def hop_channels(self) -> list[tuple[int, int, int]]:
        """Data-channel keys ``(node, port, switch)`` along the path."""
        return [(node, port, self.switch) for node, port in self.path]

    def held_channels(self) -> list[tuple[int, int, int]]:
        """Channels still actually reserved (excludes torn-down prefix)."""
        return [
            (node, port, self.switch)
            for node, port in self.path[self.released_upto:]
        ]

    def node_after(self, index: int, neighbor_of) -> int:
        """Node reached after hop ``index`` (``neighbor_of`` = topology fn)."""
        node, port = self.path[index]
        nxt = neighbor_of(node, port)
        if nxt is None:
            raise ProtocolError(
                f"circuit {self.circuit_id} hop {index} uses unconnected port"
            )
        return nxt


class CircuitTable:
    """Registry of every circuit that ever held a channel in a run.

    Provides id allocation, lookup, and the liveness invariants the test
    suite leans on.  Released circuits are kept as DEAD records (a late
    release request must still find its target, and they make
    post-mortem analysis possible); use :meth:`live_circuits` for
    scans.  Failed set-up attempts are dropped (:meth:`forget`): past
    saturation they outnumber the circuits that were ever established.
    """

    def __init__(self) -> None:
        self._next_id = 1
        self.circuits: dict[int, Circuit] = {}

    def create(self, src: int, dst: int, switch: int) -> Circuit:
        c = Circuit(circuit_id=self._next_id, src=src, dst=dst, switch=switch)
        self._next_id += 1
        self.circuits[c.circuit_id] = c
        return c

    def get(self, circuit_id: int) -> Circuit:
        try:
            return self.circuits[circuit_id]
        except KeyError:
            raise ProtocolError(f"unknown circuit id {circuit_id}") from None

    def forget(self, circuit: Circuit) -> None:
        """Drop the record of a failed set-up attempt.

        Only for a DEAD circuit with an empty path that never had Ack
        Returned set anywhere: it was never a victim, so no control flit
        and no cache entry can name its id again.
        """
        if circuit.state is not CircuitState.DEAD or circuit.path:
            raise ProtocolError(
                f"forgetting circuit {circuit.circuit_id} in state "
                f"{circuit.state.value} with {len(circuit.path)} hops held"
            )
        del self.circuits[circuit.circuit_id]

    def live_circuits(self) -> list[Circuit]:
        return [
            c for c in self.circuits.values() if c.state is not CircuitState.DEAD
        ]

    def established(self) -> list[Circuit]:
        return [
            c
            for c in self.circuits.values()
            if c.state is CircuitState.ESTABLISHED
        ]

    def channels_in_use(self) -> dict[tuple[int, int, int], int]:
        """Map each reserved data channel to its owning circuit id.

        Raises :class:`ProtocolError` if two live circuits claim the same
        channel -- the cardinal resource-exclusivity invariant.
        """
        owners: dict[tuple[int, int, int], int] = {}
        for c in self.live_circuits():
            for key in c.held_channels():
                other = owners.get(key)
                if other is not None:
                    raise ProtocolError(
                        f"channel {key} claimed by circuits {other} "
                        f"and {c.circuit_id}"
                    )
                owners[key] = c.circuit_id
        return owners
