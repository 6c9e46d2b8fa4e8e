"""The same ``--seed`` gives the same generated inputs, another seed
gives other inputs, and nothing else feeds the program under test."""

from repro.topology import build_topology

from benchmarks.perf import service, sim, verify


def messages(name: str, seed: int) -> list[tuple]:
    w = sim.SIM_WORKLOADS[name]
    topology = build_topology("mesh", sim.DIMS)
    return [
        (m.msg_id, m.src, m.dst, m.length, m.created)
        for m in sim.make_traffic(w, seed, 2_000, topology)
    ]


def test_sim_traffic_is_a_pure_function_of_the_seed():
    for name in sim.SIM_WORKLOADS:
        assert messages(name, 5) == messages(name, 5)
        assert messages(name, 5) != messages(name, 6)
        assert sim.make_config(sim.SIM_WORKLOADS[name], 5, "active").seed == 5


def test_injection_scales_with_seconds():
    w = sim.SIM_WORKLOADS["clrp_saturation"]
    assert sim.injection_cycles(w, 10) == w.injection_cycles
    assert sim.injection_cycles(w, 1) == w.injection_cycles // 10


def test_campaign_jobs_derive_their_seeds_from_the_seed():
    same = service.campaign_document("c", 5, 4)
    assert same == service.campaign_document("c", 5, 4)
    other = service.campaign_document("c", 6, 4)
    assert set(same["grid"]["seed"]).isdisjoint(other["grid"]["seed"])
    assert same["grid"]["workload.load"] == service.LOADS


def test_tiny_jobs_are_distinct_and_seeded():
    keys = [s.key() for s in service.tiny_specs(5, 30)]
    assert len(set(keys)) == 30
    assert keys == [s.key() for s in service.tiny_specs(5, 30)]
    assert set(keys).isdisjoint(s.key() for s in service.tiny_specs(6, 30))
    # Warm-up jobs never collide with timed ones (they would be cache hits).
    timed = service.tiny_specs(5, 30, first=service.ROUNDTRIP_WARMUP)
    warm = service.tiny_specs(5, service.ROUNDTRIP_WARMUP)
    assert {s.key() for s in timed}.isdisjoint(s.key() for s in warm)


def test_verify_ladder_is_frozen_and_only_ordered_by_the_seed():
    full = [c.describe() for c in verify.build_configs(10)]
    orders = {
        tuple(c.describe() for c in verify.set_up(seed, 10)[0])
        for seed in range(8)
    }
    assert all(sorted(order) == sorted(full) for order in orders)
    assert len(orders) > 1
    assert len(verify.build_configs(1)) == 1  # shorter run: fewer rungs
