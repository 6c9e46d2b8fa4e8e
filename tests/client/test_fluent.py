"""Fluent client surface: builders, lazy collections."""

import pytest

from repro.client import Session
from repro.client.session import JobEvent, _lookup
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


class TestCampaignBuilder:
    def base_builder(self, session):
        return (
            session.campaign("sweep")
            .defaults(
                dims="4x4", protocol="wormhole", max_cycles=20_000,
                workload={"kind": "uniform", "load": 0.05,
                          "length": 8, "duration": 150},
            )
        )

    def test_document_accumulates_fluently(self):
        doc = (
            Session("http://127.0.0.1:1")  # never contacted
            .campaign("sweep")
            .defaults(protocol="clrp", dims="8x8")
            .defaults(max_cycles=50_000)
            .grid({"workload.load": [0.1, 0.2]})
            .grid(seed=[0, 1])
            .job(protocol="carp")
            .document()
        )
        assert doc["name"] == "sweep"
        assert doc["defaults"] == {"protocol": "clrp", "dims": "8x8",
                                   "max_cycles": 50_000}
        assert doc["grid"] == {"workload.load": [0.1, 0.2],
                               "seed": [0, 1]}
        assert doc["jobs"] == [{"protocol": "carp"}]

    def test_build_submit_wait(self, session):
        campaign = (
            self.base_builder(session)
            .grid(seed=[0, 1])
            .priority(3)
            .submit()
            .wait(timeout=60)
        )
        assert campaign.status == "done"
        assert campaign.data["priority"] == 3
        assert len(campaign.jobs.all()) == 2

    def test_builder_tenant_overrides_session(self, service):
        with Session(service, tenant="alice") as session:
            campaign = (
                self.base_builder(session).grid(seed=[0]).tenant("bob")
                .submit()
            )
        assert campaign.data["tenant"] == "bob"


class TestJobCollection:
    @pytest.fixture
    def campaign(self, session):
        specs = [tiny_spec(load, seed) for load in (0.05, 0.1)
                 for seed in (0, 1)]
        return session.submit_specs(specs, name="grid").wait(timeout=60)

    def test_filters_compose_lazily(self, campaign):
        collection = campaign.jobs.filter(status="ok")
        narrowed = collection.filter(
            lambda j: j["label"].endswith("#1")
        )
        assert collection.count() == 4
        assert narrowed.count() == 2
        assert {j.label for j in narrowed} == {"tiny@0.05#1", "tiny@0.1#1"}

    def test_dotted_path_filter(self, campaign):
        injected = campaign.jobs.first().refresh().metrics["injected"]
        same = campaign.jobs.filter(**{"metrics.injected": injected})
        assert same.count() >= 1

    def test_first_and_len(self, campaign):
        assert len(campaign.jobs) == 4
        assert campaign.jobs.filter(status="failed").first() is None
        assert campaign.jobs.filter(status="nope").count() == 0

    def test_resubmit_hits_cache(self, campaign, session):
        before = session.store_stats()["executed"]
        again = campaign.jobs.filter(status="ok").resubmit(
            name="again"
        ).wait(timeout=60)
        assert again.counts["cached"] == 4
        assert session.store_stats()["executed"] == before

    def test_resubmit_empty_collection_raises(self, campaign):
        with pytest.raises(ValueError, match="no jobs match"):
            campaign.jobs.filter(status="failed").resubmit()

    def test_session_wide_jobs_query(self, campaign, session):
        assert len(session.jobs.filter(status="ok")) == 4


class TestJobEvent:
    def test_from_dict_ignores_unknown_fields(self):
        event = JobEvent.from_dict({
            "event": "job", "id": "j-000001", "status": "ok",
            "metrics": {"x": 1}, "seq": 7, "brand_new_field": True,
        })
        assert event.id == "j-000001"
        assert event.metrics == {"x": 1}
        assert not event.terminal

    def test_terminal_detection(self):
        assert JobEvent.from_dict({"event": "end", "status": "done"}).terminal

    def test_lookup_dotted_paths(self):
        data = {"metrics": {"observe": {"samples": 3}}, "flat": 1}
        assert _lookup(data, "metrics.observe.samples") == 3
        assert _lookup(data, "flat") == 1
        assert _lookup(data, "metrics.missing.deep") is None

