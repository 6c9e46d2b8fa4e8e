"""Livelock monitors (Theorems 3 and 4, executable).

Two bounds make "no livelock" checkable:

* **Probe work bound** -- MB-m limits misroutes to ``m`` and the History
  Store prevents re-searching, so a probe's total forward hops plus
  backtracks is bounded by twice the number of directed channels of its
  switch slice (each channel is reserved at most once per *visit*, and
  each backtrack permanently retires one (node, port) pair from the
  search).  :class:`ProbeWorkMonitor` asserts an explicit bound per probe.

* **Message age bound** -- with a finite workload every message must be
  delivered; :func:`max_message_age` feeds the stress tests that assert
  ages stay finite (delivery within a run-dependent bound), and the
  engine-level progress timeout catches global stalls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import LivelockError

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuits.plane import WavePlane
    from repro.network.network import Network


class ProbeWorkMonitor:
    """Asserts every probe's search work stays within the MB-m bound.

    The bound used is ``2 * directed_links + waits_allowance``: each
    directed link can be reserved and backtracked over at most once per
    history entry, and waiting cycles (Force probes) are bounded by the
    victim-release chain, which the caller bounds via ``max_waits``.
    """

    def __init__(self, network: "Network", max_waits: int = 64) -> None:
        if network.plane is None:
            raise LivelockError("no wave plane to monitor")
        self.plane: "WavePlane" = network.plane
        self.links = len(network.topology.links())
        self.max_waits = max_waits

    def bound(self) -> int:
        return 2 * self.links + self.max_waits

    def check(self) -> None:
        for probe in self.plane.probes:
            work = probe.hops + probe.backtracks
            if work > self.bound():
                raise LivelockError(
                    f"probe {probe.probe_id} ({probe.src}->{probe.dst}, "
                    f"switch {probe.switch}, force={probe.force}) exceeded "
                    f"the MB-m work bound: {work} > {self.bound()}"
                )


def max_message_age(network: "Network") -> int:
    """Age (cycles since creation) of the oldest undelivered message."""
    now = network.cycle
    ages = [
        now - m.created
        for m in network.stats.messages.values()
        if m.delivered < 0
    ]
    return max(ages, default=0)

