"""Wrappers time a layer without changing what it computes, and touch
instances only."""

import threading

from repro.circuits.plane import WavePlane
from repro.network.interface import NetworkInterface
from repro.network.network import Network
from repro.network.vectorized import VectorizedCore
from repro.wormhole.router import WormholeRouter

from benchmarks.perf import sim
from benchmarks.perf.trace import Tracer

WRAPPED_CLASSES = (
    Network, NetworkInterface, WormholeRouter, WavePlane, VectorizedCore,
)
INJECTION = 600


def test_traced_run_equals_untraced_and_leaves_classes_alone():
    before = {cls: dict(vars(cls)) for cls in WRAPPED_CLASSES}
    for name in ("clrp_saturation", "wormhole_saturation"):
        w = sim.SIM_WORKLOADS[name]
        for backend in sim.TIMED_BACKENDS:
            plain = sim.run_backend(w, 5, INJECTION, backend)
            tracer = Tracer()
            traced = sim.run_backend(w, 5, INJECTION, backend, tracer)
            assert traced["fingerprint"] == plain["fingerprint"]
            assert plain["fingerprint"]["completed"]
            assert tracer.calls("network.step") > 0
            assert tracer.calls("network.inject") == (
                plain["fingerprint"]["injected"]
            )
            if backend == "vectorized":
                assert tracer.calls("network.vectorized_step") > 0
                assert tracer.calls("wormhole.route_phase") == 0
            if name == "wormhole_saturation":
                assert tracer.calls("circuits.plane_step") == 0
            else:
                assert sum(traced["occupancy"].values()) > 0
    assert {cls: dict(vars(cls)) for cls in WRAPPED_CLASSES} == before
    # A network built afterwards runs the original, unwrapped methods.
    fresh = Network(sim.make_config(sim.SIM_WORKLOADS["clrp_saturation"],
                                    5, "active"))
    assert "step" not in vars(fresh) and "inject" not in vars(fresh)
    assert "step" not in vars(fresh.plane)


def test_window_spans_account_for_the_whole_run():
    w = sim.SIM_WORKLOADS["clrp_saturation"]
    tracer = Tracer()
    sim.run_backend(w, 5, 2 * sim.WINDOW_CYCLES, "active", tracer)
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "sim.run")
    steps = [s for s in tracer.spans if s.name == "network.step"]
    assert len(steps) >= 2 and all(s.parent == root for s in steps)
    assert sum(s.duration for s in steps) <= tracer.spans[root].duration
    step_ids = {i for i, s in enumerate(tracer.spans) if s.name == "network.step"}
    planes = [s for s in tracer.spans if s.name == "circuits.plane_step"]
    assert planes and all(s.parent in step_ids for s in planes)
    total = sum(s.duration for s in planes)
    assert abs(total - tracer.seconds("circuits.plane_step")) < 1e-6


class Layer:
    def work(self, x):
        return x + 1


def test_wrap_is_a_pass_through_on_one_instance():
    tracer = Tracer()
    wrapped, untouched = Layer(), Layer()
    original = vars(Layer)["work"]
    tracer.wrap(wrapped, "work", "layer.work")
    assert [wrapped.work(i) for i in range(5)] == [1, 2, 3, 4, 5]
    assert untouched.work(1) == 2
    assert tracer.calls("layer.work") == 5 and tracer.seconds("layer.work") > 0
    assert vars(Layer)["work"] is original
    assert "work" not in vars(untouched)


def test_server_side_spans_hang_off_the_client_call_in_flight():
    tracer = Tracer()
    server = Layer()
    tracer.wrap(server, "work", "service.work", span=True)
    tracer.tag = "request-7"
    with tracer.span("client.submit", client=True) as client:
        thread = threading.Thread(target=server.work, args=(1,))
        thread.start()
        thread.join()
        with tracer.span("client.inner"):
            pass
    server.work(2)  # no client call open: a root span
    by_name = {s.name: s for s in tracer.spans[:3]}
    assert by_name["service.work"].parent == client
    assert by_name["client.inner"].parent == client
    assert tracer.spans[-1].parent is None
    assert all(s.tag == "request-7" and s.end >= s.start for s in tracer.spans)
    assert tracer.calls("service.work") == 2


def test_dump_writes_one_json_line_per_span(tmp_path):
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    lines = tracer.dump(tmp_path / "out" / "spans.jsonl").read_text().splitlines()
    assert len(lines) == 2 and '"parent": 0' in lines[1]
