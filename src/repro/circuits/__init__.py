"""Circuit-switching substrate: PCS control plane and wave data plane.

This package implements everything below the CLRP/CARP protocols:

* :mod:`repro.circuits.circuit` -- physical circuits and their lifecycle
  (``SETTING_UP -> ESTABLISHED -> RELEASING -> DEAD``).
* :mod:`repro.circuits.pcs_unit` -- the PCS routing control unit's status
  registers (Fig. 3: Channel Status, Direct/Reverse Channel Mappings,
  History Store, Ack Returned).
* :mod:`repro.circuits.probe` -- the routing probe (Fig. 4) and the MB-m
  misrouting-backtracking search that reserves circuits.
* :mod:`repro.circuits.tables` -- the topology's wiring as validated
  lookup tables, built once per plane, that the probe walk indexes.
* :mod:`repro.circuits.control` -- acknowledgment, teardown and
  release-request control flits travelling on the control channels.
* :mod:`repro.circuits.wave` -- wave-pipelined data transfers over
  established circuits with end-to-end windowing flow control.
* :mod:`repro.circuits.plane` -- :class:`~repro.circuits.plane.WavePlane`,
  the per-network orchestrator that advances all of the above each cycle.
"""

from repro.circuits.circuit import Circuit, CircuitState, CircuitTable
from repro.circuits.control import ControlFlit, ControlFlitKind
from repro.circuits.pcs_unit import ChannelStatus, PCSControlUnit
from repro.circuits.plane import WavePlane
from repro.circuits.probe import Probe, ProbeStatus
from repro.circuits.wave import WaveTransfer

__all__ = [
    "ChannelStatus",
    "Circuit",
    "CircuitState",
    "CircuitTable",
    "ControlFlit",
    "ControlFlitKind",
    "PCSControlUnit",
    "Probe",
    "ProbeStatus",
    "WavePlane",
    "WaveTransfer",
]
