"""Executable forms of the paper's Theorems 1-4.

* :mod:`repro.verify.waitgraph` -- builds the worm-level wait-for graph of
  the wormhole plane (OR-wait semantics: a worm blocked on several
  alternatives deadlocks only if *every* alternative is transitively
  stuck).
* :mod:`repro.verify.deadlock` -- the runtime deadlock detector
  (Theorems 1 and 2: no such stuck set may ever exist).
* :mod:`repro.verify.progress` -- livelock monitors (Theorems 3 and 4:
  probes do bounded work; message ages are bounded under finite load).
* :mod:`repro.verify.invariants` -- structural invariants tying the
  distributed register state (PCS units, Circuit Caches) to the global
  circuit table; run by tests after every scenario.
* :mod:`repro.verify.cdg` -- *static* extended channel-dependency-graph
  analysis from topology + routing + protocol config alone, no
  simulation: the one route walker, the routing subfunctions it is
  handed, and the resource-separation leg of Theorems 1-2.
* :mod:`repro.verify.fuzz` -- property-based protocol fuzzing under a
  per-cycle invariant harness, with failure shrinking to minimal
  replayable JobSpecs.
* :mod:`repro.verify.smt` -- the proof ladder over those graphs
  (acyclicity / escape, valid subrelation, family-exhausted rejection),
  decided by a native per-channel rank engine with z3 as an optional
  cross-check; machine-checkable JSON certificates replayable without a
  solver, and fuzzer seeding for rejected configs.
"""

from repro.verify.cdg import (
    CDGReport,
    analyze_config,
    build_cdg,
    find_cycle,
)
from repro.verify.deadlock import (
    assert_no_deadlock,
    deadlocked_in_graph,
    find_deadlocked_worms,
)
from repro.verify.invariants import (
    check_all_invariants,
    check_fault_isolation,
    teardown_latency,
)
from repro.verify.fuzz import (
    FuzzReport,
    InvariantHarness,
    fuzz_campaign,
    generate_spec,
    load_spec,
    shrink,
)
from repro.verify.ordering import OrderingReport, check_in_order_delivery
from repro.verify.smt import (
    CertificateCheck,
    SmtReport,
    check_certificate,
    check_certificate_files,
    format_report,
    rejection_jobspecs,
    verify_config,
)
from repro.verify.progress import (
    ProbeWorkMonitor,
    max_message_age,
)
from repro.verify.waitgraph import WaitGraph, build_wait_graph

__all__ = [
    "CDGReport",
    "CertificateCheck",
    "FuzzReport",
    "InvariantHarness",
    "OrderingReport",
    "ProbeWorkMonitor",
    "SmtReport",
    "WaitGraph",
    "analyze_config",
    "assert_no_deadlock",
    "build_cdg",
    "build_wait_graph",
    "check_all_invariants",
    "check_certificate",
    "check_certificate_files",
    "check_fault_isolation",
    "check_in_order_delivery",
    "deadlocked_in_graph",
    "find_cycle",
    "find_deadlocked_worms",
    "format_report",
    "fuzz_campaign",
    "generate_spec",
    "load_spec",
    "max_message_age",
    "rejection_jobspecs",
    "shrink",
    "teardown_latency",
    "verify_config",
]
