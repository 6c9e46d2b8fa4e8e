"""repro: a reproduction of Duato, López & Yalamanchili,
"Deadlock- and Livelock-Free Routing Protocols for Wave Switching"
(IPPS 1997).

A flit-level, cycle-accurate simulator of wave-switched interconnection
networks: hybrid routers combining a wormhole subsystem (S0) with
wave-pipelined circuit switches (S1..Sk), plus the paper's two routing
protocols -- CLRP (the network as a cache of circuits) and CARP
(compiler-directed circuits) -- with executable versions of its
deadlock- and livelock-freedom theorems.

Quickstart::

    from repro import (
        NetworkConfig, Network, Simulator, MessageFactory,
        UniformPattern, uniform_workload, SimRandom,
    )

    config = NetworkConfig(topology="mesh", dims=(4, 4), protocol="clrp")
    net = Network(config)
    factory = MessageFactory()
    workload = uniform_workload(
        factory, UniformPattern(config.num_nodes),
        num_nodes=config.num_nodes, offered_load=0.05, length=32,
        duration=2000, rng=SimRandom(1),
    )
    result = Simulator(net, workload).run(50_000)
    print(result.summary())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.analysis import (
    ExperimentResult,
    format_table,
    run_experiment,
    run_load_sweep,
)
from repro.core import (
    CARPEngine,
    CLRPEngine,
    CircuitCache,
    CircuitClose,
    CircuitOpen,
)
from repro.errors import (
    ConfigError,
    DeadlockError,
    LivelockError,
    ProtocolError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
)
from repro.network import Message, MessageFactory, Network
from repro.sim import (
    NetworkConfig,
    ReliabilityConfig,
    SimRandom,
    SimulationResult,
    Simulator,
    StatsCollector,
    SwitchingMode,
    WaveConfig,
    WormholeConfig,
)
from repro.topology import (
    FaultEvent,
    FaultSchedule,
    FaultSet,
    Hypercube,
    Mesh,
    Torus,
    build_topology,
    derive_fault_rng,
)
from repro.traffic import (
    LocalityWorkloadBuilder,
    TransposePattern,
    UniformPattern,
    all_to_all_workload,
    compile_directives,
    make_pattern,
    stencil_workload,
    uniform_workload,
)
from repro.verify import check_all_invariants

__version__ = "1.0.0"

__all__ = [
    "CARPEngine",
    "CLRPEngine",
    "CircuitCache",
    "CircuitClose",
    "CircuitOpen",
    "ConfigError",
    "DeadlockError",
    "ExperimentResult",
    "FaultEvent",
    "FaultSchedule",
    "FaultSet",
    "Hypercube",
    "LivelockError",
    "LocalityWorkloadBuilder",
    "Mesh",
    "Message",
    "MessageFactory",
    "Network",
    "NetworkConfig",
    "ProtocolError",
    "ReliabilityConfig",
    "ReproError",
    "RoutingError",
    "SimRandom",
    "SimulationError",
    "SimulationResult",
    "Simulator",
    "StatsCollector",
    "SwitchingMode",
    "TopologyError",
    "Torus",
    "TransposePattern",
    "UniformPattern",
    "WaveConfig",
    "WormholeConfig",
    "all_to_all_workload",
    "build_topology",
    "check_all_invariants",
    "compile_directives",
    "derive_fault_rng",
    "format_table",
    "make_pattern",
    "run_experiment",
    "run_load_sweep",
    "stencil_workload",
    "uniform_workload",
]
