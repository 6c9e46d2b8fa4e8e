"""Property-based tests of the MB-m probe search.

Hypothesis throws random pre-existing circuits, faults and endpoints at a
plane and checks the MB-m contract every time:

* the probe terminates within the History-Store work bound;
* success yields a *valid* path: connected src -> dst, every hop reserved
  for the circuit, length bounded by ``distance + 2 * misroutes``;
* failure leaves *zero* residual reservations (full unwind);
* the search never touches faulty channels.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import CircuitState
from repro.circuits.pcs_unit import ChannelStatus
from repro.circuits.plane import WavePlane
from repro.circuits.probe import ProbeStatus
from repro.circuits.tables import PortTables
from repro.errors import TopologyError
from repro.sim.config import WaveConfig
from repro.sim.rng import SimRandom
from repro.sim.stats import StatsCollector
from repro.topology import (
    Butterfly,
    FaultSet,
    FullMesh,
    Hypercube,
    Mesh,
    Torus,
)
from tests.helpers import StubEngine


class _NullEngine:
    def probe_failed(self, probe, circuit, cycle):
        pass

    def circuit_established(self, circuit, cycle):
        pass


def build_plane(topo, m, faults):
    plane = WavePlane(
        topo,
        WaveConfig(num_switches=1, misroute_budget=m),
        StatsCollector(),
        faults,
    )
    for n in range(topo.num_nodes):
        plane.register_engine(n, _NullEngine())
    return plane


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["mesh", "torus"]))
    radix = draw(st.integers(3, 5))
    topo = Mesh((radix, radix)) if kind == "mesh" else Torus((radix, radix))
    m = draw(st.integers(0, 4))
    fault_fraction = draw(st.sampled_from([0.0, 0.1, 0.2]))
    fault_seed = draw(st.integers(0, 1000))
    # Random pre-existing circuits to contend with.
    n_blockers = draw(st.integers(0, 6))
    pair_seed = draw(st.integers(0, 1000))
    src = draw(st.integers(0, topo.num_nodes - 1))
    dst = draw(st.integers(0, topo.num_nodes - 1))
    if dst == src:
        dst = (src + 1) % topo.num_nodes
    return topo, m, fault_fraction, fault_seed, n_blockers, pair_seed, src, dst


def run_plane_until_idle(plane, start, limit):
    cycle = start
    while not plane.is_idle() and cycle < start + limit:
        plane.step(cycle)
        cycle += 1
    assert plane.is_idle(), "plane did not settle"
    return cycle


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_mbm_contract(scenario):
    topo, m, fault_fraction, fault_seed, n_blockers, pair_seed, src, dst = scenario
    faults = FaultSet(topo)
    if fault_fraction:
        faults.fail_random_links(fault_fraction, SimRandom(fault_seed))
    plane = build_plane(topo, m, faults)

    # Blockers: establish random circuits first (ignore failures).
    rng = SimRandom(pair_seed).stream("pairs")
    for _ in range(n_blockers):
        a = rng.randrange(topo.num_nodes)
        b = rng.randrange(topo.num_nodes)
        if a == b:
            continue
        plane.launch_probe(a, b, 0, force=False, cycle=0)
    run_plane_until_idle(plane, 1, 20_000)

    circuit, probe = plane.launch_probe(src, dst, 0, force=False, cycle=100)
    end = run_plane_until_idle(plane, 101, 40_000)

    # Work bound (Theorem 3's argument).
    links = len(topo.links())
    assert probe.hops + probe.backtracks <= 2 * links + 2

    if circuit.state is CircuitState.ESTABLISHED:
        # Valid connected path.
        node = src
        for hop_node, port in circuit.path:
            assert hop_node == node
            assert not faults.is_faulty(hop_node, port)
            unit = plane.units[hop_node]
            assert unit.owner(port, 0) == circuit.circuit_id
            assert unit.ack_returned(port, 0)
            node = topo.neighbor(hop_node, port)
        assert node == dst
        # Length bound: minimal distance plus two hops per misroute.
        assert circuit.length <= topo.distance(src, dst) + 2 * probe.misroutes
        assert probe.misroutes <= m
    else:
        assert probe.status is ProbeStatus.FAILED
        # Full unwind: nothing reserved for the failed attempt anywhere.
        for n in range(topo.num_nodes):
            unit = plane.units[n]
            for port, switch in unit.reserved_channels():
                assert unit.owner(port, switch) != circuit.circuit_id


# -- one decision of the walk against its definition -------------------------
#
# The plane's probe loop reads interned tuples out of PortTables and the
# channel registers by index.  The oracle below is the module docstring of
# repro.circuits.probe written out with the Topology's own methods and
# the unit's checked getters, and knows nothing of either.

TOPOLOGIES = {
    "mesh": lambda: Mesh((3, 4)),
    "torus": lambda: Torus((4, 4)),  # radix 4: ties, both ring directions minimal
    "hypercube": lambda: Hypercube(3),
    "fullmesh": lambda: FullMesh(5),
    "min": lambda: Butterfly(2, 3),  # unidirectional: return_port is None
}
OTHER_PROBE = 999


def expected_decision(topo, plane, faults, probe):
    """What MB-m does next: advance over a port, wait on victims, or
    backtrack."""
    at, switch, pid = probe.at_node, probe.switch, probe.probe_id
    unit = plane.units[at]
    minimal = topo.minimal_ports(at, probe.dst)
    path = plane.table.get(probe.circuit_id).path
    u_turn = topo.return_port(*path[-1]) if path else None

    def searchable(port):
        return not unit.searched(pid, port) and not faults.is_faulty(at, port)

    def visible(port):  # not held for another waiting probe
        return plane.claims.get((at, port, switch)) in (None, pid)

    ports = topo.connected_ports(at)
    profitable = [p for p in ports if p in minimal and searchable(p)]
    misroutes = []
    if probe.misroutes < probe.max_misroutes:
        misroutes = [
            p for p in ports
            if p not in minimal and p != u_turn and searchable(p)
        ]
    requested = profitable + misroutes
    for port in requested:
        if unit.status(port, switch) is ChannelStatus.FREE and visible(port):
            return ("advance", port, port in misroutes)
    if probe.force:
        victims = [
            (port, unit.owner(port, switch))
            for port in requested
            if unit.status(port, switch) is ChannelStatus.RESERVED
            and unit.ack_returned(port, switch) and visible(port)
        ]
        if victims:
            return ("wait", victims)
    return ("backtrack",)


@st.composite
def plane_states(draw):
    topo = TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))]()
    m = draw(st.integers(0, 3))
    force = draw(st.booleans())
    faults = FaultSet(topo)
    plane = WavePlane(
        topo, WaveConfig(num_switches=2, misroute_budget=m), StatsCollector(),
        faults,
    )
    engines = [StubEngine(plane, n) for n in range(topo.num_nodes)]
    for engine in engines:
        engine.auto_release = False
        plane.register_engine(engine.node, engine)
    src = draw(st.integers(0, topo.num_endpoints - 1))
    dst = draw(st.integers(0, topo.num_endpoints - 2))
    dst += dst >= src
    switch = draw(st.integers(0, 1))
    circuit, probe = plane.launch_probe(src, dst, switch, force=force, cycle=0)
    # Walk it somewhere, so it stands on a path with a hop to U-turn onto;
    # each hop reserved and mapped through the unit's checked API.
    for _ in range(draw(st.integers(0, 3))):
        at = probe.at_node
        unit = plane.units[at]
        onward = [
            p for p in topo.connected_ports(at)
            if topo.neighbor(at, p) != dst
            and unit.status(p, switch) is ChannelStatus.FREE
        ]
        if not onward:
            break
        port = draw(st.sampled_from(onward))
        unit.reserve(port, switch, circuit.circuit_id)
        in_key = None
        if circuit.path:
            in_key = (topo.reverse_port(*circuit.path[-1]), switch)
        unit.map_through(in_key, (port, switch))
        circuit.path.append((at, port))
        probe.at_node = topo.neighbor(at, port)
    probe.misroutes = draw(st.integers(0, m))
    # Then dress every output link of the node it stands at.
    at = probe.at_node
    unit = plane.units[at]
    for port in topo.connected_ports(at):
        holder = draw(st.sampled_from(
            ["free", "free", "setting_up", "established"]
        ))
        if unit.status(port, switch) is not ChannelStatus.FREE:
            continue  # the probe's own path came through here
        if holder != "free":
            other = plane.table.create(at, topo.neighbor(at, port), switch)
            other.path.append((at, port))
            unit.reserve(port, switch, other.circuit_id)
            if holder == "established":
                unit.set_ack_returned(port, switch, other.circuit_id)
                other.state = CircuitState.ESTABLISHED
        claimant = draw(st.sampled_from([None, None, probe.probe_id, OTHER_PROBE]))
        if claimant is not None:
            plane.claims[at, port, switch] = claimant
        searcher = draw(st.sampled_from([None, None, probe.probe_id, OTHER_PROBE]))
        if searcher is not None:
            unit.record_search(searcher, port)
        if draw(st.integers(0, 4)) == 0:
            faults.fail_link(at, port, bidirectional=False)
    return topo, plane, faults, engines, probe


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plane_states())
def test_step_takes_what_the_definition_takes(state):
    topo, plane, faults, engines, probe = state
    at, switch = probe.at_node, probe.switch
    circuit = plane.table.get(probe.circuit_id)
    path = list(circuit.path)
    misroutes = probe.misroutes
    expected = expected_decision(topo, plane, faults, probe)

    plane.step(10)  # the probe is the only one in flight, and due

    if expected[0] == "advance":
        _, port, is_misroute = expected
        assert circuit.path == path + [(at, port)]
        assert probe.at_node == topo.neighbor(at, port)
        assert plane.units[at].owner(port, switch) == circuit.circuit_id
        in_key = (topo.reverse_port(*path[-1]), switch) if path else None
        assert plane.units[at].prev_hop((port, switch)) == in_key
        assert probe.misroutes == misroutes + is_misroute
        assert probe.status is ProbeStatus.SEARCHING
        assert not probe.backtracking
    elif expected[0] == "wait":
        (port, victim), *_ = expected[1]
        assert probe.status is ProbeStatus.WAITING
        assert probe.at_node == at and circuit.path == path
        assert probe.requested_releases == {victim}
        assert plane.claims[at, port, switch] == probe.probe_id
        assert [c.circuit_id for c, _ in engines[at].release_requests] == [victim]
        assert probe.ready_at == 10 + 8
    elif path:
        prev_node, prev_port = path[-1]
        assert probe.at_node == prev_node and circuit.path == path[:-1]
        assert plane.units[prev_node].searched(probe.probe_id, prev_port)
        assert plane.units[prev_node].status(prev_port, switch) is ChannelStatus.FREE
        assert plane.units[prev_node].prev_hop((prev_port, switch)) is None
        assert probe.backtracking
    else:
        assert probe.status is ProbeStatus.FAILED
        assert [c for _, c, _ in engines[at].failed] == [circuit]
        assert circuit.circuit_id not in plane.table.circuits
    if expected[0] != "advance":
        assert probe.misroutes == misroutes
        backed_off_forced = expected[0] == "backtrack" and probe.force
        assert plane.stats.count("probe.force_backtracks") == backed_off_forced


# -- the tables against the topology they cache ------------------------------


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
def test_port_tables_equal_the_topology_methods(kind):
    topo = TOPOLOGIES[kind]()
    tables = PortTables(topo)
    for node in range(topo.num_nodes):
        ports = topo.connected_ports(node)
        assert tables.connected[node] == tuple(ports)
        for port in range(topo.num_ports):
            if port in ports:
                assert tables.neighbor[node][port] == topo.neighbor(node, port)
                assert tables.reverse_port[node][port] == topo.reverse_port(node, port)
                assert tables.return_port[node][port] == topo.return_port(node, port)
            else:
                assert tables.neighbor[node][port] is None
                assert tables.reverse_port[node][port] is None
                assert tables.return_port[node][port] is None
        for dst in range(topo.num_nodes):
            minimal = topo.minimal_ports(node, dst)
            profitable, others = tables.walk[node, dst]
            assert profitable == tuple(p for p in ports if p in minimal)
            assert others == tuple(p for p in ports if p not in minimal)
    # Interned: equal pairs are one object, so the table costs a
    # reference per visited (node, dst), not two tuples.
    distinct = {id(pair) for pair in tables.walk.values()}
    assert len(distinct) == len(set(tables.walk.values()))
    assert len(distinct) < len(tables.walk)


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
def test_out_of_range_wiring_is_rejected_when_the_tables_are_built(kind):
    """The walk indexes registers with table values unchecked, so a bad
    value must never get into a table."""
    topo = TOPOLOGIES[kind]()
    tables = PortTables(topo)
    for bad in ((topo.num_nodes, 0), (0, topo.num_nodes), (-1, 0)):
        with pytest.raises(TopologyError):
            tables.walk[bad]
        assert bad not in tables.walk
    node, port = topo.links()[-1]

    def miswired(method, value):
        real = getattr(topo, method)
        return lambda n, p: value if (n, p) == (node, port) else real(n, p)

    for method, value in (
        ("neighbor", topo.num_nodes),
        ("neighbor", -1),
        ("reverse_port", topo.num_ports),
        ("return_port", topo.num_ports),
    ):
        broken = TOPOLOGIES[kind]()
        setattr(broken, method, miswired(method, value))
        with pytest.raises(TopologyError):
            PortTables(broken)
