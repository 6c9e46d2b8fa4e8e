"""JobServer over real HTTP: routes, streaming, errors, lifecycle.

Each test runs a live server on an ephemeral port (ServiceThread) with
the thread executor -- execute_job holds no global state, so thread
execution is bit-identical to the process pool and to serial runs.
"""

import json
from contextlib import closing

import pytest

from repro.client import ServiceError, Session
from repro.client.transport import HttpTransport
from repro.orchestrate.spec import JobSpec, WorkloadRecipe
from repro.service.server import ServiceConfig, ServiceThread
from repro.sim.config import NetworkConfig


def tiny_spec(load=0.05, seed=0) -> JobSpec:
    return JobSpec(
        config=NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None,
                             seed=seed),
        workload=WorkloadRecipe.make(
            "uniform", load=load, length=8, duration=150
        ),
        label=f"tiny@{load:g}#{seed}",
        max_cycles=20_000,
    )


@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(
        port=0, store=f"sqlite:{tmp_path / 'store'}",
        workers=2, executor="thread",
    )
    with ServiceThread(config) as url:
        yield url


@pytest.fixture
def session(service):
    with Session(service) as session:
        yield session


@pytest.fixture
def transport(service):
    with closing(HttpTransport(service)) as transport:
        yield transport


class TestRoutes:
    def test_health(self, session):
        health = session.health()
        assert health["status"] == "ok"
        assert health["api_version"] == 1

    def test_store_stats_shape(self, session):
        stats = session.store_stats()
        assert stats["store"]["backend"] == "sqlite"
        assert stats["executed"] == 0 and stats["pending"] == 0

    def test_submit_wait_results(self, session):
        specs = [tiny_spec(load) for load in (0.05, 0.1)]
        campaign = session.submit_specs(specs, name="pair").wait(timeout=60)
        assert campaign.status == "done"
        assert campaign.counts["ok"] == 2
        results = campaign.results()
        assert len(results) == 2
        for row in results:
            assert row["status"] == "ok"
            assert row["metrics"]["delivered"] == row["metrics"]["injected"]
            assert row["spec"]["workload"]["kind"] == "uniform"

    def test_stream_ends_with_terminal_event(self, session):
        campaign = session.submit_specs([tiny_spec()], name="solo")
        events = list(campaign.stream())
        assert events[-1].terminal
        assert events[-1].counts["ok"] + events[-1].counts["cached"] == 1
        job_events = [e for e in events if e.event == "job"]
        assert len(job_events) == 1
        assert job_events[0].metrics is not None

    def test_job_detail_carries_spec(self, session):
        campaign = session.submit_specs([tiny_spec()], name="solo")
        campaign.wait(timeout=60)
        job = campaign.jobs.first()
        assert job is not None
        assert job.spec["config"]["protocol"] == "wormhole"

    def test_single_job_submission(self, transport):
        spec = tiny_spec()
        out = transport.request(
            "POST", "/api/jobs", body={"spec": spec.to_dict()}
        )
        assert out["status"] in ("queued", "running")
        assert out["key"] == spec.key()

    def test_single_job_submission_decodes_its_spec_once(
        self, transport, monkeypatch
    ):
        decoded = []
        real = JobSpec.from_dict.__func__
        monkeypatch.setattr(
            JobSpec, "from_dict",
            classmethod(lambda cls, d: decoded.append(d) or real(cls, d)),
        )
        spec = tiny_spec()
        out = transport.request(
            "POST", "/api/jobs",
            body={"spec": spec.to_dict(), "tenant": "alice", "priority": 3},
        )
        assert decoded == [spec.to_dict()]
        assert (out["key"], out["tenant"], out["priority"]) == (
            spec.key(), "alice", 3,
        )
        # Unnamed, the one-job campaign is called after the spec's label.
        assert out["campaign"] == spec.label

    def test_campaign_document_submission(self, session):
        campaign = session.submit_campaign({
            "name": "doc",
            "defaults": {
                "dims": "4x4", "protocol": "wormhole",
                "workload": {"kind": "uniform", "load": 0.05,
                             "length": 8, "duration": 150},
                "max_cycles": 20_000,
            },
            "grid": {"seed": [0, 1]},
        }).wait(timeout=60)
        assert campaign.status == "done"
        assert campaign.data["jobs"] == 2

    def test_tenant_from_header(self, service):
        with Session(service, tenant="alice") as session:
            campaign = session.submit_specs([tiny_spec()], name="mine")
        assert campaign.data["tenant"] == "alice"

    def test_cancel_queued_campaign(self, tmp_path):
        # Zero-rate quota: nothing ever starts, so cancel sees it queued.
        config = ServiceConfig(
            port=0, store=f"sqlite:{tmp_path / 'store'}", workers=1,
            executor="thread", rate=0.000001, burst=1,
        )
        with ServiceThread(config) as url, Session(url) as session:
            session.submit_specs([tiny_spec(0.01)], name="warm")  # takes token
            campaign = session.submit_specs(
                [tiny_spec(load) for load in (0.05, 0.1)], name="stuck"
            )
            out = campaign.cancel()
            assert out["cancelled"] == 2
            assert campaign.status == "cancelled"


class TestServerSideDedup:
    def test_second_campaign_is_pure_cache(self, session):
        specs = [tiny_spec(load) for load in (0.05, 0.1)]
        session.submit_specs(specs, name="first").wait(timeout=60)
        again = session.submit_specs(specs, name="second").wait(timeout=60)
        assert again.counts["cached"] == 2
        stats = session.store_stats()
        assert stats["executed"] == 2 and stats["cache_hits"] == 2

    def test_dedup_crosses_tenants(self, service):
        spec = tiny_spec()
        with Session(service, tenant="alice") as alice:
            alice.submit_specs([spec], name="a").wait(timeout=60)
        with Session(service, tenant="bob") as bob:
            again = bob.submit_specs([spec], name="b").wait(timeout=60)
        assert again.counts["cached"] == 1


class TestErrors:
    def test_unknown_route_is_404(self, transport):
        with pytest.raises(ServiceError) as err:
            transport.request("GET", "/api/nope")
        assert err.value.status == 404

    def test_unknown_campaign_is_404(self, session):
        with pytest.raises(ServiceError) as err:
            session.get_campaign("c-9999")
        assert err.value.status == 404

    def test_empty_submission_is_400(self, transport):
        with pytest.raises(ServiceError) as err:
            transport.request(
                "POST", "/api/campaigns", body={"specs": []}
            )
        assert err.value.status == 400

    def test_malformed_campaign_document_is_400(self, session):
        with pytest.raises(ServiceError) as err:
            session.submit_campaign({"name": "empty"})
        assert err.value.status == 400

    def test_misspelt_entry_key_is_400(self, session):
        document = {
            "defaults": {"dims": "4x4", "max_cycle": 10,
                         "workload": {"kind": "uniform", "load": 0.05,
                                      "length": 8, "duration": 150}},
            "jobs": [{}],
        }
        with pytest.raises(ServiceError) as err:
            session.submit_campaign(document)
        assert err.value.status == 400
        assert "max_cycle" in str(err.value)

    def test_wrong_method_is_405(self, transport):
        with pytest.raises(ServiceError) as err:
            transport.request("DELETE", "/api/campaigns")
        assert err.value.status == 405

    def test_invalid_json_body_is_400(self, service):
        # Hand-rolled request with a broken body, below the client layer.
        import http.client

        host, port = service.replace("http://", "").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.request("POST", "/api/campaigns", body=b"{nope",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
            assert "JSON" in json.loads(resp.read())["error"]
        finally:
            conn.close()


class TestRestartResume:
    def test_results_survive_server_restart(self, tmp_path):
        """A new server over the same store resumes via cache (gate 1)."""
        store = f"sqlite:{tmp_path / 'store'}"
        spec = tiny_spec()
        config = ServiceConfig(port=0, store=store, workers=1,
                               executor="thread")
        with ServiceThread(config) as url, Session(url) as session:
            session.submit_specs([spec], name="one").wait(timeout=60)
        with ServiceThread(ServiceConfig(
            port=0, store=store, workers=1, executor="thread"
        )) as url, Session(url) as session:
            again = session.submit_specs([spec], name="two").wait(timeout=60)
            assert again.counts["cached"] == 1
            assert session.store_stats()["executed"] == 0


def _swap_wakeup_fd() -> int:
    """Runs in a pool worker: the wake-up descriptor it would signal."""
    import signal

    return signal.set_wakeup_fd(-1)


class TestWorkerSignals:
    def test_pool_workers_do_not_signal_the_servers_loop(self, tmp_path):
        """`repro serve` sets a signal wake-up descriptor before its
        workers fork; a worker that kept it would turn the SIGTERM the
        pool sends to the siblings of a dead worker into a drain of the
        whole server."""
        import signal
        import socket

        from repro.service.server import JobServer

        server = JobServer(ServiceConfig(
            port=0, store=f"sqlite:{tmp_path / 'store'}", workers=1,
            executor="process",
        ))
        ours, theirs = socket.socketpair()
        ours.setblocking(False)
        previous = signal.set_wakeup_fd(ours.fileno())
        try:
            server._make_executor()
            future = server._executor.submit(_swap_wakeup_fd)
            assert future.result(timeout=30) == -1
        finally:
            signal.set_wakeup_fd(previous)
            server._executor.shutdown(wait=True)
            server.state.store.close()
            ours.close()
            theirs.close()
