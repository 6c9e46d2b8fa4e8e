"""ServiceState: three-gate submission, coalescing, cancel, events.

Driven synchronously (no event loop): the state object is plain data
that the asyncio server happens to drive.
"""

import asyncio

from repro.orchestrate import ResultStore
from repro.orchestrate.spec import JobSpec, WorkloadRecipe
from repro.service.model import (
    STATUS_CACHED,
    STATUS_CANCELLED,
    STATUS_OK,
    STATUS_QUEUED,
)
from repro.service.scheduler import FairScheduler
from repro.service.state import ServiceState
from repro.sim.config import NetworkConfig


def tiny_spec(load=0.05, seed=0) -> JobSpec:
    return JobSpec(
        config=NetworkConfig(dims=(4, 4), protocol="wormhole", wave=None,
                             seed=seed),
        workload=WorkloadRecipe.make(
            "uniform", load=load, length=8, duration=150
        ),
        label=f"tiny@{load:g}#{seed}",
    )


def make_state(tmp_path) -> ServiceState:
    return ServiceState(
        ResultStore(tmp_path / "results.jsonl"), FairScheduler()
    )


def run_queued(state: ServiceState) -> int:
    """Drain the scheduler, resolving each job as a fake success."""
    ran = 0
    while True:
        job = state.scheduler.acquire()
        if job is None:
            return ran
        state.mark_running(job)
        state.finish(
            job, metrics={"load": job.spec.workload.param("load")},
            failure=None, elapsed_s=0.1,
        )
        ran += 1


class TestSubmissionGates:
    def test_store_dedup_resolves_instantly(self, tmp_path):
        state = make_state(tmp_path)
        spec = tiny_spec()
        state.store.record(spec.key(), spec_dict=spec.to_dict(),
                           status="ok", metrics={"cached": True})
        campaign = state.submit("camp", [spec])
        [job] = campaign.jobs
        assert job.status == STATUS_CACHED
        assert job.from_cache and job.metrics == {"cached": True}
        assert state.cache_hits == 1
        assert state.scheduler.pending() == 0
        assert campaign.done and campaign.status == "done"

    def test_failed_store_records_are_re_executed(self, tmp_path):
        state = make_state(tmp_path)
        spec = tiny_spec()
        state.store.record(spec.key(), spec_dict=spec.to_dict(),
                           status="failed",
                           failure={"kind": "x", "message": "y"})
        campaign = state.submit("camp", [spec])
        assert campaign.jobs[0].status == STATUS_QUEUED
        assert state.scheduler.pending() == 1

    def test_identical_inflight_specs_coalesce(self, tmp_path):
        state = make_state(tmp_path)
        spec = tiny_spec()
        first = state.submit("one", [spec], tenant="alice")
        second = state.submit("two", [spec], tenant="bob")
        primary, follower = first.jobs[0], second.jobs[0]
        assert follower.coalesced_with == primary.job_id
        assert state.coalesced == 1
        assert state.scheduler.pending() == 1  # one execution for both
        assert run_queued(state) == 1
        assert primary.status == STATUS_OK
        assert follower.status == STATUS_OK and follower.from_cache
        assert follower.metrics == primary.metrics
        assert second.done

    def test_new_work_queues_and_records_on_finish(self, tmp_path):
        state = make_state(tmp_path)
        specs = [tiny_spec(load) for load in (0.05, 0.1)]
        campaign = state.submit("camp", specs, tenant="t")
        assert state.scheduler.pending() == 2
        assert run_queued(state) == 2
        assert campaign.status == "done"
        assert state.executed == 2
        # Finishing recorded through the store under the campaign name.
        for spec in specs:
            record = state.store.get(spec.key())
            assert record["status"] == "ok"
            assert record["campaign"] == "camp"

    def test_resubmission_after_finish_is_all_cached(self, tmp_path):
        state = make_state(tmp_path)
        specs = [tiny_spec(load) for load in (0.05, 0.1)]
        state.submit("first", specs)
        run_queued(state)
        again = state.submit("second", specs)
        assert all(j.status == STATUS_CACHED for j in again.jobs)
        assert state.executed == 2 and state.cache_hits == 2


class TestFailures:
    def test_failure_propagates_to_followers_without_cache_flag(
        self, tmp_path
    ):
        state = make_state(tmp_path)
        spec = tiny_spec()
        first = state.submit("one", [spec])
        second = state.submit("two", [spec])
        job = state.scheduler.acquire()
        state.mark_running(job)
        state.finish(job, metrics=None,
                     failure={"kind": "exception", "message": "boom"},
                     elapsed_s=0.1)
        assert first.jobs[0].status == "failed"
        assert second.jobs[0].status == "failed"
        assert not second.jobs[0].from_cache
        assert first.status == "failed"
        # A failure is never a cache hit for the next submission.
        third = state.submit("three", [spec])
        assert third.jobs[0].status == STATUS_QUEUED


class TestCancellation:
    def test_cancel_drops_queued_jobs(self, tmp_path):
        state = make_state(tmp_path)
        campaign = state.submit(
            "camp", [tiny_spec(load) for load in (0.05, 0.1, 0.2)]
        )
        cancelled = state.cancel_campaign(campaign)
        assert cancelled == 3
        assert campaign.status == "cancelled"
        assert all(j.status == STATUS_CANCELLED for j in campaign.jobs)
        assert state.scheduler.pending() == 0

    def test_cancel_promotes_follower_of_cancelled_primary(self, tmp_path):
        state = make_state(tmp_path)
        spec = tiny_spec()
        first = state.submit("one", [spec])
        second = state.submit("two", [spec])  # follower of first's job
        state.cancel_campaign(first)
        promoted = second.jobs[0]
        assert first.jobs[0].status == STATUS_CANCELLED
        assert promoted.status == STATUS_QUEUED
        assert promoted.coalesced_with is None
        assert state.scheduler.pending() == 1
        assert run_queued(state) == 1
        assert promoted.status == STATUS_OK

    def test_cancel_spares_running_jobs(self, tmp_path):
        state = make_state(tmp_path)
        campaign = state.submit(
            "camp", [tiny_spec(0.05), tiny_spec(0.1)]
        )
        running = state.scheduler.acquire()
        state.mark_running(running)
        cancelled = state.cancel_campaign(campaign)
        assert cancelled == 1  # only the still-queued one
        assert running.status == "running"
        # The running job still finishes, records and caches normally.
        state.finish(running, metrics={}, failure=None, elapsed_s=0.1)
        assert running.status == STATUS_OK
        assert state.store.get(running.key) is not None


class TestEventsAndQueries:
    def test_events_record_lifecycle(self, tmp_path):
        state = make_state(tmp_path)
        campaign = state.submit("camp", [tiny_spec()])
        run_queued(state)
        [event] = campaign.events
        assert event["event"] == "job"
        assert event["status"] == "ok"
        assert event["metrics"] == {"load": 0.05}
        assert event["seq"] == 0

    def test_stream_replays_then_ends(self, tmp_path):
        state = make_state(tmp_path)
        campaign = state.submit("camp", [tiny_spec()])
        run_queued(state)

        async def collect():
            return [
                e async for batch in state.stream_events(campaign)
                for e in batch
            ]

        events = asyncio.run(collect())
        assert [e["event"] for e in events] == ["job", "end"]
        assert events[-1]["status"] == "done"
        assert events[-1]["counts"]["ok"] == 1

    def test_find_campaign_by_id_and_name(self, tmp_path):
        state = make_state(tmp_path)
        campaign = state.submit("my-sweep", [tiny_spec()])
        assert state.find_campaign(campaign.campaign_id) is campaign
        assert state.find_campaign("my-sweep") is campaign
        assert state.find_campaign("nope") is None

    def test_find_campaign_duplicate_name_returns_newest(self, tmp_path):
        """A reused name must resolve to the latest submission, not an
        arbitrary (historically: the oldest) match."""
        state = make_state(tmp_path)
        first = state.submit("nightly", [tiny_spec(0.05)])
        second = state.submit("nightly", [tiny_spec(0.1)])
        assert state.find_campaign("nightly") is second
        # Both remain addressable by id.
        assert state.find_campaign(first.campaign_id) is first

    def test_requeue_keeps_attempt_count_honest(self, tmp_path):
        """Worker-death requeue: attempts accumulate and reach both the
        finish event and the store record (not hardcoded to 1)."""
        state = make_state(tmp_path)
        campaign = state.submit("camp", [tiny_spec()])
        job = state.scheduler.acquire()
        state.mark_running(job)
        assert job.attempts == 1
        state.requeue(job, reason="worker died: test")
        assert job.status == STATUS_QUEUED
        assert state.scheduler.pending() == 1
        job = state.scheduler.acquire()
        state.mark_running(job)
        assert job.attempts == 2
        state.finish(job, metrics={}, failure=None, elapsed_s=0.1)
        assert job.attempts == 2
        assert state.store.get(job.key)["attempts"] == 2
        assert campaign.status == "done"

    def test_notify_tasks_strongly_referenced_until_done(self, tmp_path):
        """The loop only weakly references tasks; state must hold each
        notify task until it runs, or a GC pass can strand streams."""
        state = make_state(tmp_path)

        async def scenario():
            state.submit("camp", [tiny_spec()])
            # The notify task must be retained right after scheduling...
            assert len(state._notify_tasks) >= 1
            for task in list(state._notify_tasks):
                await task
            # ...and dropped once it has run (no unbounded growth).
            assert not state._notify_tasks

        asyncio.run(scenario())

    def test_list_jobs_filters(self, tmp_path):
        state = make_state(tmp_path)
        one = state.submit("one", [tiny_spec(0.05)], tenant="alice")
        state.submit("two", [tiny_spec(0.1)], tenant="bob")
        run_queued(state)
        assert len(state.list_jobs()) == 2
        assert len(state.list_jobs(tenant="alice")) == 1
        assert len(state.list_jobs(status="ok")) == 2
        assert len(
            state.list_jobs(campaign_id=one.campaign_id, tenant="bob")
        ) == 0

    def test_describe_counters(self, tmp_path):
        state = make_state(tmp_path)
        spec = tiny_spec()
        state.submit("a", [spec])
        state.submit("b", [spec])
        run_queued(state)
        state.submit("c", [spec])
        info = state.describe()
        assert info["executed"] == 1
        assert info["coalesced"] == 1
        assert info["cache_hits"] == 1
        assert info["campaigns"] == 3 and info["jobs"] == 3
        assert info["store"]["backend"] == "jsonl"
