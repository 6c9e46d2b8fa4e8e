"""Exception hierarchy for the wave-switching reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class TopologyError(ReproError):
    """A topology query was invalid (bad node, bad port, bad coordinates)."""


class RoutingError(ReproError):
    """A routing function could not produce a legal output port."""


class ProtocolError(ReproError):
    """A switching-protocol state machine reached an illegal state.

    This is the "should never happen" error: the CLRP/CARP/PCS engines raise
    it when an invariant from the paper's proofs is violated (e.g. a probe
    waiting on a channel owned by a circuit being established, which
    Theorem 1 explicitly forbids).
    """


class BackendDivergence(ProtocolError):
    """The fast stepping core and ``step_reference`` disagreed on one spec.

    Raised by the differential oracle in
    :func:`repro.orchestrate.runner.execute_job`; the message names the
    first observable that differs.
    """


class DeadlockError(ReproError):
    """The runtime deadlock detector found a cycle in the wait-for graph.

    Carries the offending cycle for diagnosis.
    """

    def __init__(self, message: str, cycle: list | None = None) -> None:
        super().__init__(message)
        self.cycle = cycle if cycle is not None else []


class LivelockError(ReproError):
    """The progress monitor decided the network stopped making progress."""


class SimulationError(ReproError):
    """The simulation engine was driven incorrectly (e.g. run after stop)."""
