"""Workload generation: traffic patterns and synthetic workloads.

The paper's protocols respond only to the (src, dst, length, time) stream
of messages, so workloads here are plain sorted lists of
:class:`~repro.network.message.Message` (plus CARP directives when the
compiler is involved), which :class:`~repro.sim.engine.Simulator` pumps.

* :mod:`repro.traffic.patterns` -- destination distributions (uniform,
  transpose, bit-reversal, bit-complement, hotspot, nearest-neighbour,
  fixed permutation);
* :mod:`repro.traffic.workloads` -- Bernoulli/burst open-loop loads and
  application-shaped workloads (stencil, all-to-all, master-worker);
* :mod:`repro.traffic.locality` -- the spatio-temporal locality generator
  standing in for the real application traces the paper defers to;
* :mod:`repro.traffic.compiler` -- the CARP "compiler": a static analyser
  that scans a message stream and emits CircuitOpen/CircuitClose
  directives for pairs with enough temporal locality.
"""

from repro.traffic.compiler import CompilerReport, compile_directives
from repro.traffic.locality import LocalityWorkloadBuilder
from repro.traffic.mapping import (
    BlockMapping,
    IdentityMapping,
    ProcessMapping,
    RandomMapping,
    mean_communication_distance,
    remap_workload,
)
from repro.traffic.patterns import (
    BitComplementPattern,
    BitReversalPattern,
    HotspotPattern,
    NearestNeighborPattern,
    PermutationPattern,
    TrafficPattern,
    TransposePattern,
    UniformPattern,
    make_pattern,
)
from repro.traffic.workloads import (
    all_to_all_workload,
    dsm_workload,
    master_worker_workload,
    merge_streams,
    pair_stream_workload,
    stencil_workload,
    uniform_workload,
)

__all__ = [
    "BitComplementPattern",
    "BlockMapping",
    "IdentityMapping",
    "ProcessMapping",
    "RandomMapping",
    "mean_communication_distance",
    "remap_workload",
    "BitReversalPattern",
    "CompilerReport",
    "HotspotPattern",
    "LocalityWorkloadBuilder",
    "NearestNeighborPattern",
    "PermutationPattern",
    "TrafficPattern",
    "TransposePattern",
    "UniformPattern",
    "all_to_all_workload",
    "compile_directives",
    "dsm_workload",
    "make_pattern",
    "master_worker_workload",
    "merge_streams",
    "pair_stream_workload",
    "stencil_workload",
    "uniform_workload",
]
