"""Worm-level wait-for graph of the wormhole plane.

Agents are *worms* (messages with flits in the network).  A worm advances
at its **foremost site**: the input VC holding its lowest-index flit at
the buffer head.  At that site it either

* can move freely (routed with credit, or ejecting, or an unrouted header
  with a free candidate VC) -- not blocked;
* waits on one or more alternatives, each held by some other worm
  (OR-wait): an unrouted header waits on the owners of every candidate
  output VC; a routed worm without credit waits on the worm at the head
  of the full downstream buffer.

Deadlock is then a non-empty set of worms none of which has an
alternative leading out of the set -- computed by the standard
"who can eventually move" fixpoint in :mod:`repro.verify.deadlock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.wormhole.flit import EJECT_PORT

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network


@dataclass
class WaitEntry:
    """One worm's situation at its foremost site."""

    msg_id: int
    node: int
    in_port: int
    in_vc: int
    free: bool  # at least one alternative is immediately available
    blockers: set[int] = field(default_factory=set)  # msg ids (OR-wait)
    reason: str = ""


class WaitGraph:
    """The complete wait state of the wormhole plane at one instant."""

    def __init__(self) -> None:
        self.entries: dict[int, WaitEntry] = {}

    def add(self, entry: WaitEntry) -> None:
        self.entries[entry.msg_id] = entry

    def worms(self) -> list[int]:
        return list(self.entries)


def _owner_msg(router, owner: tuple[int, int] | None) -> int | None:
    """Map an output VC owner (in_port, in_vc) to the worm occupying it."""
    if owner is None:
        return None
    port, vc = owner
    head = router.inputs[port][vc].head()
    if head is None:
        # Owner's buffer momentarily drained (flits upstream); the VC will
        # free when the worm's tail passes -- attribute to no one (free-ish:
        # upstream progress is possible, so this alternative is not stuck).
        return None
    return head.msg_id


def build_wait_graph(network: "Network") -> WaitGraph:
    """Snapshot the wormhole plane's wait-for relationships."""
    network.materialize_views()
    graph = WaitGraph()
    # Foremost site per worm: the occupied input VC whose *head* flit has
    # the worm's smallest flit index.
    sites: dict[int, tuple[int, int, int, int]] = {}  # msg -> (idx, node, port, vc)
    for router in network.routers:
        for port, vc in router._active:
            head = router.inputs[port][vc].head()
            if head is None:
                continue
            best = sites.get(head.msg_id)
            if best is None or head.index < best[0]:
                sites[head.msg_id] = (head.index, router.node, port, vc)

    for msg_id, (_idx, node, port, vc) in sites.items():
        router = network.routers[node]
        ivc = router.inputs[port][vc]
        head = ivc.head()
        assert head is not None
        entry = WaitEntry(msg_id=msg_id, node=node, in_port=port, in_vc=vc,
                          free=False)
        if ivc.route is not None:
            out_port, out_vc = ivc.route
            if out_port == EJECT_PORT:
                entry.free = True  # the NI always consumes
                entry.reason = "ejecting"
            else:
                out = router.outputs[out_port][out_vc]
                if out.credits > 0:
                    entry.free = True
                    entry.reason = "has_credit"
                else:
                    down = router.downstream[out_port]
                    assert down is not None
                    d_router, d_port = down
                    blocker = _owner_msg(
                        d_router, (d_port, out_vc)
                    )
                    entry.reason = "no_credit"
                    if blocker is not None and blocker != msg_id:
                        entry.blockers.add(blocker)
                    else:
                        # Downstream buffer full of our own flits (or
                        # transiently unattributable): progress depends on
                        # our own downstream site, handled as that site is
                        # never the foremost one. Treat as free to stay
                        # sound (never report a false deadlock).
                        entry.free = True
        elif head.is_head:
            # Unrouted header: every candidate output VC is an alternative.
            if head.dst == router.node:
                # Waiting for an ejection VC.
                entry.reason = "eject_wait"
                for ev, owner in enumerate(router.eject_owner):
                    if owner is None:
                        entry.free = True
                        break
                    blocker = _owner_msg(router, owner)
                    if blocker is not None and blocker != msg_id:
                        entry.blockers.add(blocker)
                    else:
                        entry.free = True
            else:
                entry.reason = "va_wait"
                tiers = router.routing.candidates(router.node, head.dst, head)
                for tier in tiers:
                    for cand_port, cand_vcs in tier:
                        if router.downstream[cand_port] is None:
                            continue
                        if router.faults is not None and router.faults.is_faulty(
                            router.node, cand_port
                        ):
                            continue
                        for cand_vc in cand_vcs:
                            out = router.outputs[cand_port][cand_vc]
                            if out.owner is None:
                                entry.free = True
                            else:
                                blocker = _owner_msg(router, out.owner)
                                if blocker is not None and blocker != msg_id:
                                    entry.blockers.add(blocker)
                                else:
                                    entry.free = True
        else:
            # Head of buffer is a body flit without a route: the previous
            # tail just released the route this cycle; transient.
            entry.free = True
            entry.reason = "transient"
        graph.add(entry)
    return graph
