"""Routing probes (Fig. 4) and the MB-m misrouting-backtracking search.

A probe is a single control flit that walks the control channels of one
wave switch ``Si``, reserving the (control channel, data channel) pair at
each hop.  The MB-m protocol (Gaughan & Yalamanchili [12]) governs the
walk:

* *profitable* links (on a minimal path to the destination) are preferred;
* up to ``m`` *misroutes* over non-minimal links are allowed;
* when no acceptable link is free the probe **backtracks**, releasing the
  last reservation and recording the searched link in the previous node's
  History Store so the same path is never searched twice;
* a probe with the **Force** bit set (CLRP phase 2) does not backtrack on
  channels held by *established* circuits -- it selects a victim and waits
  for its release; it still backtracks when every requested channel
  belongs to a circuit *being established* (waiting there would create the
  cyclic channel dependencies Theorem 1 rules out).

A :class:`Probe` is a plain record of the walk's state.  The walk itself
runs inside :meth:`WavePlane._step_probes
<repro.circuits.plane.WavePlane._step_probes>`, which reads the node's
channel registers, the History Store, the claims and the plane's
:class:`~repro.circuits.tables.PortTables`, decides, and carries the
advance or the backtrack out in the same loop body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuits.circuit import Circuit


class ProbeStatus(Enum):
    SEARCHING = "searching"
    WAITING = "waiting"  # Force probe waiting on a victim circuit release
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass(slots=True)
class Probe:
    """One routing probe (Fig. 4) plus its search bookkeeping.

    The paper's fields map as: Header bit -- implicit in the type;
    Backtrack bit -- :attr:`backtracking`; Misroute -- :attr:`misroutes`;
    Force -- :attr:`force`; the Xi-offset fields -- derivable from
    :attr:`at_node` and :attr:`dst`.
    """

    probe_id: int
    circuit_id: int
    src: int
    dst: int
    switch: int
    force: bool
    max_misroutes: int
    at_node: int = -1
    misroutes: int = 0
    backtracking: bool = False
    status: ProbeStatus = ProbeStatus.SEARCHING
    ready_at: int = 0
    # Channels whose circuits we have already asked to be released, so a
    # waiting probe does not flood duplicate release requests.
    requested_releases: set[int] = field(default_factory=set)
    # Nodes where this probe wrote History Store entries, so finishing the
    # probe clears only those units instead of sweeping every node.
    history_nodes: set[int] = field(default_factory=set)
    # Statistics.
    hops: int = 0
    backtracks: int = 0
    waits: int = 0
    # The circuit attempt this probe reserves for, set at launch.
    circuit: Circuit | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.at_node < 0:
            self.at_node = self.src
