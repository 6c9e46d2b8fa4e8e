"""The paper's contribution: CLRP and CARP on top of the wave substrate.

* :mod:`repro.core.circuit_cache` -- the Circuit Cache registers (Fig. 5)
  kept in every node's network interface.
* :mod:`repro.core.replacement` -- replacement algorithms for the cache
  (the paper leaves the policy open; we provide LRU, LFU, FIFO, random).
* :mod:`repro.core.clrp` -- the Cache-Like Routing Protocol (section 3.1):
  the network handled as a cache of circuits, with the three-phase
  Force-bit establishment procedure.
* :mod:`repro.core.carp` -- the Compiler Aided Routing Protocol (section
  3.2): explicit open/close directives.
* :mod:`repro.core.baseline` -- the wormhole-only engine used as the
  comparison baseline in every benchmark.
"""

from repro.core.baseline import WormholeOnlyEngine
from repro.core.carp import CARPEngine, CircuitClose, CircuitOpen, Directive
from repro.core.circuit_cache import CacheEntryState, CircuitCache, CircuitCacheEntry
from repro.core.clrp import CLRPEngine
from repro.core.replacement import (
    FIFOReplacement,
    LFUReplacement,
    LRUReplacement,
    RandomReplacement,
    ReplacementPolicy,
    make_replacement,
)

__all__ = [
    "CARPEngine",
    "CLRPEngine",
    "CacheEntryState",
    "CircuitCache",
    "CircuitCacheEntry",
    "CircuitClose",
    "CircuitOpen",
    "Directive",
    "FIFOReplacement",
    "LFUReplacement",
    "LRUReplacement",
    "RandomReplacement",
    "ReplacementPolicy",
    "WormholeOnlyEngine",
    "make_replacement",
]
