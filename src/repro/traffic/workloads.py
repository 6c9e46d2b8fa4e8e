"""Synthetic and application-shaped workloads.

All builders return a list of :class:`~repro.network.message.Message`
sorted by creation cycle.  Open-loop loads draw geometric inter-arrival
times per node by counting Bernoulli trials, one ``random()`` per node
per cycle: O(nodes x cycles) uniforms, but only O(number of messages)
generator steps and message objects.  A closed-form sampler would draw
O(messages) uniforms but change every seeded workload.

Rates are quoted in **flits per node per cycle** -- the unit the
interconnect literature uses for offered load -- and converted internally
using the message length.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.network.message import Message, MessageFactory
from repro.sim.rng import SimRandom
from repro.topology.base import Topology
from repro.traffic.patterns import TrafficPattern


def merge_streams(*streams: Iterable) -> list:
    """Merge already-sorted item streams by ``created`` (stable)."""
    return list(heapq.merge(*streams, key=lambda item: item.created))


def _geometric_gaps(stream, p: float, until: int, start: int = 0):
    """Yield arrival cycles of a Bernoulli(p)-per-cycle process.

    Each gap is counted out one trial per cycle, so a node costs one
    ``stream.random()`` per cycle from ``start`` to its first arrival
    at or past ``until``, whatever ``p`` is.
    """
    t = start
    while True:
        # Geometric inter-arrival (support >= 1 cycle between arrivals
        # keeps at most one message per node per cycle, like real NIs).
        gap = 1
        while stream.random() >= p:
            gap += 1
        t += gap
        if t >= until:
            return
        yield t


def uniform_workload(
    factory: MessageFactory,
    pattern: TrafficPattern,
    *,
    num_nodes: int,
    offered_load: float,
    length: int,
    duration: int,
    rng: SimRandom,
    start: int = 0,
) -> list[Message]:
    """Open-loop load: every node injects at ``offered_load`` flits/cycle.

    Args:
        offered_load: flits per node per cycle (0 < load <= 1 is the
            physically meaningful range for one injection channel).
        length: message length in flits.
        duration: injection window in cycles (messages created in
            ``[start, start + duration)``).
    """
    if offered_load <= 0:
        raise ConfigError(f"offered_load must be > 0, got {offered_load}")
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    p = offered_load / length  # messages per node per cycle
    if p > 1:
        raise ConfigError(
            f"offered load {offered_load} with length {length} needs more "
            "than one message per cycle per node"
        )
    messages: list[Message] = []
    for src in range(num_nodes):
        stream = rng.stream(f"traffic.arrivals.{src}")
        dests = rng.stream(f"traffic.dests.{src}")
        for t in _geometric_gaps(stream, p, start + duration, start):
            messages.append(factory.make(src, pattern.pick(src, dests), length, t))
    messages.sort(key=lambda m: (m.created, m.msg_id))
    return messages


def pair_stream_workload(
    factory: MessageFactory,
    pairs: Sequence[tuple[int, int]],
    *,
    messages_per_pair: int,
    length: int,
    gap: int,
    start: int = 0,
) -> list[Message]:
    """Each (src, dst) pair exchanges a fixed train of messages.

    The deterministic building block for circuit-reuse experiments: the
    pair sends ``messages_per_pair`` messages ``gap`` cycles apart.
    """
    if messages_per_pair < 1:
        raise ConfigError("messages_per_pair must be >= 1")
    messages = []
    for src, dst in pairs:
        for i in range(messages_per_pair):
            messages.append(factory.make(src, dst, length, start + i * gap))
    messages.sort(key=lambda m: (m.created, m.msg_id))
    return messages


def stencil_workload(
    factory: MessageFactory,
    topology: Topology,
    *,
    phases: int,
    phase_gap: int,
    length: int,
    start: int = 0,
) -> list[Message]:
    """Iterative stencil: every phase, every node sends to each neighbour.

    Models the halo exchange of an iterative PDE solver -- the classic
    high-spatial-, high-temporal-locality workload the paper's intro
    motivates wave switching with (same partners every iteration).
    """
    if phases < 1:
        raise ConfigError("phases must be >= 1")
    if topology.num_endpoints != topology.num_nodes:
        raise ConfigError(
            "stencil needs every node to be an endpoint; a MIN terminal's "
            "only neighbour is a switch, which cannot sink messages"
        )
    messages = []
    for phase in range(phases):
        t = start + phase * phase_gap
        for node in topology.endpoints():
            for port in topology.connected_ports(node):
                nbr = topology.neighbor(node, port)
                assert nbr is not None
                messages.append(factory.make(node, nbr, length, t))
    messages.sort(key=lambda m: (m.created, m.msg_id))
    return messages


def all_to_all_workload(
    factory: MessageFactory,
    num_nodes: int,
    *,
    rounds: int,
    round_gap: int,
    length: int,
    start: int = 0,
    stagger: int = 0,
) -> list[Message]:
    """Total exchange: each round every node sends to every other node.

    ``stagger`` spreads each node's sends within a round (cycles between
    consecutive destinations) to avoid an unphysical single-cycle burst.
    Destinations rotate (``src + offset``) as in standard total-exchange
    schedules so the instantaneous load is balanced.
    """
    messages = []
    for r in range(rounds):
        t0 = start + r * round_gap
        for offset in range(1, num_nodes):
            t = t0 + (offset - 1) * stagger
            for src in range(num_nodes):
                messages.append(
                    factory.make(src, (src + offset) % num_nodes, length, t)
                )
    messages.sort(key=lambda m: (m.created, m.msg_id))
    return messages


def master_worker_workload(
    factory: MessageFactory,
    num_nodes: int,
    *,
    master: int,
    tasks_per_worker: int,
    task_length: int,
    result_length: int,
    task_gap: int,
    turnaround: int,
    start: int = 0,
) -> list[Message]:
    """Master scatters task messages; workers send results back.

    A persistent-pair workload with a hotspot at the master -- the case
    where a few circuits (master <-> workers) should dominate.
    """
    if master < 0 or master >= num_nodes:
        raise ConfigError(f"master {master} out of range")
    messages = []
    workers = [n for n in range(num_nodes) if n != master]
    for i in range(tasks_per_worker):
        for j, worker in enumerate(workers):
            t = start + (i * len(workers) + j) * task_gap
            messages.append(factory.make(master, worker, task_length, t))
            messages.append(
                factory.make(worker, master, result_length, t + turnaround)
            )
    messages.sort(key=lambda m: (m.created, m.msg_id))
    return messages


def dsm_workload(
    factory: MessageFactory,
    topology: Topology,
    *,
    misses_per_node: int,
    request_length: int = 1,
    line_length: int = 8,
    home_window: int = 4,
    miss_gap: int = 25,
    memory_latency: int = 30,
    rng: SimRandom,
    start: int = 0,
) -> list[Message]:
    """Distributed-shared-memory miss traffic (the paper's DSM motivation).

    Section 1: in DSMs "messages are directly sent by the hardware, as a
    consequence of remote memory accesses or coherence commands. Reducing
    the network hardware latency and increasing network throughput is
    crucial."

    Each node suffers a stream of cache misses.  A miss sends a
    ``request_length``-flit request to the *home node* of the line, which
    answers with a ``line_length``-flit reply after ``memory_latency``
    cycles.  Homes are drawn from a small per-node working set of
    ``home_window`` nearby nodes (page placement gives real DSMs exactly
    this spatial + temporal locality), making the request/reply pairs
    ideal circuit-reuse customers despite both messages being short.
    """
    if misses_per_node < 1:
        raise ConfigError("misses_per_node must be >= 1")
    if home_window < 1:
        raise ConfigError("home_window must be >= 1")
    messages: list[Message] = []
    for node in topology.endpoints():
        stream = rng.stream(f"dsm.{node}")
        nearby = sorted(
            (n for n in topology.endpoints() if n != node),
            key=lambda n: (topology.distance(node, n), n),
        )[: home_window * 3]
        homes = []
        while len(homes) < home_window:
            cand = nearby[stream.randrange(len(nearby))]
            if cand not in homes:
                homes.append(cand)
        for i in range(misses_per_node):
            t = start + i * miss_gap + stream.randrange(miss_gap // 2 + 1)
            home = homes[stream.randrange(home_window)]
            messages.append(factory.make(node, home, request_length, t))
            messages.append(
                factory.make(home, node, line_length, t + memory_latency)
            )
    messages.sort(key=lambda m: (m.created, m.msg_id))
    return messages
