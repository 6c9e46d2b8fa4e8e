"""Per-topology lookup tables for the probe walk.

The MB-m walk asks the same wiring questions on every hop -- which ports
of this node lead anywhere, which of them are profitable towards the
destination, where does a link land and which port leads back -- and the
answers never change while a plane lives.  :class:`PortTables` asks the
:class:`~repro.topology.base.Topology` once and keeps the answers in
tuples the walk indexes directly.

Every value is range-checked here, when it enters a table, so the code
that reads the tables (``WavePlane._step_probes``) can index channel
registers with it unchecked: a node or port that is out of range makes
*construction* fail.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.base import Topology

# (profitable ports, other ports) of one node towards one destination.
WalkPorts = tuple[tuple[int, ...], tuple[int, ...]]


class PortTables:
    """What the probe walk reads of a topology, cached and validated.

    Attributes:
        connected: per node, the ports that have a neighbour, in
            ``Topology.connected_ports`` order.
        neighbor / reverse_port / return_port: per node, per port slot,
            the value of the ``Topology`` method of that name (``None``
            for an unconnected slot; ``return_port`` also ``None`` on a
            unidirectional link).
        walk: ``walk[node, dst]`` is the node's connected ports split
            into *(profitable, others)*, each in ``connected`` order;
            see :class:`_WalkTable`.
    """

    def __init__(self, topology: Topology) -> None:
        nodes = range(topology.num_nodes)
        slots = range(topology.num_ports)

        def checked(value: int, valid: range, what: str, node: int, port: int) -> int:
            if value not in valid:
                raise TopologyError(
                    f"{what} of link ({node}, {port}) is {value}, outside "
                    f"[0, {len(valid)})"
                )
            return value

        connected, neighbor, reverse_port, return_port = [], [], [], []
        for node in nodes:
            ports = tuple(topology.connected_ports(node))
            nbrs: list[int | None] = [None] * len(slots)
            revs: list[int | None] = [None] * len(slots)
            rets: list[int | None] = [None] * len(slots)
            for port in ports:
                checked(port, slots, "port", node, port)
                nbrs[port] = checked(
                    topology.neighbor(node, port), nodes, "neighbor", node, port
                )
                revs[port] = checked(
                    topology.reverse_port(node, port), slots, "reverse port",
                    node, port,
                )
                back = topology.return_port(node, port)
                if back is not None:
                    rets[port] = checked(back, slots, "return port", node, port)
            connected.append(ports)
            neighbor.append(tuple(nbrs))
            reverse_port.append(tuple(revs))
            return_port.append(tuple(rets))
        self.connected: tuple[tuple[int, ...], ...] = tuple(connected)
        self.neighbor = tuple(neighbor)
        self.reverse_port = tuple(reverse_port)
        self.return_port = tuple(return_port)
        self.walk = _WalkTable(topology, self.connected)


class _WalkTable(dict):
    """``(node, dst) -> (profitable ports, other ports)``, filled on demand.

    A pair is computed from ``Topology.minimal_ports`` (after the range
    check on ``node`` and ``dst``, which not every override of it
    makes) the first time a probe stands at ``node`` heading for
    ``dst``; filling all of them eagerly would be
    ``num_nodes ** 2`` oracle calls of set-up for pairs most runs never
    visit.  Pairs are interned: an 8x8 mesh has 49 distinct ones for
    4032 (node, dst), so the table costs one reference per visited key.
    """

    def __init__(self, topology: Topology, connected) -> None:
        super().__init__()
        self._topology = topology
        self._connected = connected
        self._interned: dict[WalkPorts, WalkPorts] = {}

    def __missing__(self, key: tuple[int, int]) -> WalkPorts:
        node, dst = key
        nodes = range(len(self._connected))
        if node not in nodes or dst not in nodes:
            raise TopologyError(
                f"no walk from node {node} to {dst}: outside [0, {len(nodes)})"
            )
        minimal = set(self._topology.minimal_ports(node, dst))
        ports = self._connected[node]
        pair = (
            tuple(p for p in ports if p in minimal),
            tuple(p for p in ports if p not in minimal),
        )
        pair = self._interned.setdefault(pair, pair)
        self[key] = pair
        return pair
