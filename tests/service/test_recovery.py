"""Worker-failure recovery and restart-resume through a live server.

These run real ``ServiceThread`` servers (thread or process executor)
against real stores and journals -- no subprocess SIGKILLs (that is
tests/integration/test_service_chaos.py); "crash" here is
``stop(drain=False)``, which abandons running work and skips the drain
exactly as a dead process would.
"""

import time
from contextlib import contextmanager

from repro.client import Session
from repro.service.server import ServiceConfig, ServiceThread


def campaign_doc(jobs=3, duration=150):
    return {
        "name": "recovery",
        "defaults": {
            "topology": "mesh",
            "dims": "4x4",
            "max_cycles": 20_000,
            "workload": {"kind": "uniform", "load": 0.05,
                         "length": 8, "duration": duration},
        },
        "grid": {"seed": list(range(jobs))},
    }


def wait_until(predicate, timeout_s=30.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


@contextmanager
def serving(config):
    """A live server and a session on it; both closed on exit."""
    server = ServiceThread(config)
    try:
        with Session(server.start()) as session:
            yield server, session
    finally:
        server.stop()


class TestRestartResume:
    def test_unclean_stop_then_resume_completes_campaign(self, tmp_path):
        """Submit, die without drain, resume: zero lost, zero duplicated."""
        config = ServiceConfig(
            port=0, store=str(tmp_path / "store.jsonl"),
            workers=2, executor="thread",
        )
        first = ServiceThread(config)
        with Session(first.start()) as session:
            campaign_id = session.submit_campaign(campaign_doc()).id
        first.stop(drain=False)  # simulated crash: no drain, no goodbye

        with serving(ServiceConfig(
            port=0, store=str(tmp_path / "store.jsonl"),
            workers=2, executor="thread", resume=True,
        )) as (_server, session):
            campaign = session.get_campaign(campaign_id)
            assert campaign.name == "recovery"
            events = [e for e in campaign.stream() if e.event == "job"]
            assert len(events) == 3
            assert len({e.id for e in events}) == 3  # exactly once each
            campaign.refresh()
            assert campaign.counts["ok"] + campaign.counts["cached"] == 3
            assert campaign.counts["failed"] == 0

    def test_resume_skips_work_recorded_before_crash(self, tmp_path):
        """Jobs that finished pre-crash come back terminal, not re-run."""
        config = ServiceConfig(
            port=0, store=str(tmp_path / "store.jsonl"),
            workers=2, executor="thread",
        )
        first = ServiceThread(config)
        with Session(first.start()) as session:
            campaign = session.submit_campaign(campaign_doc())
            campaign.wait(timeout=60)
            executed_first = session.store_stats()["executed"]
        assert executed_first == 3
        first.stop(drain=False)

        with serving(ServiceConfig(
            port=0, store=str(tmp_path / "store.jsonl"),
            workers=2, executor="thread", resume=True,
        )) as (_server, session):
            back = session.get_campaign(campaign.id)
            assert back.status == "done"
            # Nothing to re-execute: the journal finishes restored every
            # job as terminal and the pump got no work.
            assert session.store_stats()["executed"] == 0
            assert session.store_stats()["restored"] == 0


class TestWorkerDeathRecovery:
    def test_broken_pool_rebuilds_and_retries(self, tmp_path):
        """SIGKILL a pool worker mid-job: the job re-admits and succeeds
        with attempts == 2, and the pool is rebuilt for the rest."""
        config = ServiceConfig(
            port=0, store=str(tmp_path / "store.jsonl"),
            workers=1, executor="process", retries=1,
        )
        with serving(config) as (server, session):
            campaign = session.submit_campaign(
                campaign_doc(jobs=2, duration=8000)
            )
            wait_until(
                lambda: bool(server.server._executor._processes),
                what="a pool worker to spawn",
            )
            wait_until(
                lambda: session.get_campaign(campaign.id)
                .counts.get("running", 0) > 0,
                what="a job to start running",
            )
            [victim] = list(server.server._executor._processes.values())
            victim.kill()

            campaign.wait(timeout=120)
            campaign.refresh()
            assert campaign.counts["failed"] == 0
            assert campaign.counts["ok"] == 2
            attempts = sorted(
                job.data["attempts"] for job in campaign.jobs
            )
            # The killed job ran twice; the other (queued at the kill)
            # ran once on the rebuilt pool.
            assert attempts == [1, 2]

    def test_crash_budget_exhaustion_records_honest_failure(self, tmp_path):
        """retries=0: a worker death is a terminal crash, not a hang."""
        config = ServiceConfig(
            port=0, store=str(tmp_path / "store.jsonl"),
            workers=1, executor="process", retries=0,
        )
        with serving(config) as (server, session):
            campaign = session.submit_campaign(
                campaign_doc(jobs=1, duration=8000)
            )
            wait_until(
                lambda: session.get_campaign(campaign.id)
                .counts.get("running", 0) > 0,
                what="the job to start running",
            )
            [victim] = list(server.server._executor._processes.values())
            victim.kill()
            campaign.wait(timeout=60)
            campaign.refresh()
            assert campaign.counts["failed"] == 1
            [job] = list(campaign.jobs)
            assert job.data["failure"]["kind"] == "crash"
            assert "worker died" in job.data["failure"]["message"]


class TestJobTimeout:
    def test_job_exceeding_timeout_fails_and_pool_recovers(self, tmp_path):
        config = ServiceConfig(
            port=0, store=str(tmp_path / "store.jsonl"),
            workers=1, executor="process", job_timeout_s=0.2,
        )
        with serving(config) as (_server, session):
            # Job 1 cannot finish in 0.2s; it must time out...
            slow = session.submit_campaign(
                campaign_doc(jobs=1, duration=60_000)
            )
            slow.wait(timeout=60)
            slow.refresh()
            [job] = list(slow.jobs)
            assert job.status == "failed"
            assert job.data["failure"]["kind"] == "timeout"


class TestGracefulDrain:
    def test_stop_with_drain_finishes_running_jobs(self, tmp_path):
        config = ServiceConfig(
            port=0, store=str(tmp_path / "store.jsonl"),
            workers=2, executor="thread", drain_timeout_s=60.0,
        )
        server = ServiceThread(config)
        with Session(server.start()) as session:
            campaign_id = session.submit_campaign(
                campaign_doc(jobs=2, duration=2000)
            ).id

            # A job that already finished proves the same thing as one
            # still running (its result must survive the stop), and fast
            # jobs can pass through "running" between two polls.
            def started() -> bool:
                counts = session.get_campaign(campaign_id).counts
                return counts.get("running", 0) + counts.get("ok", 0) > 0

            wait_until(started, what="jobs to start running")
        server.stop(drain=True)
        # The drained results reached the store even though the server
        # is gone: a resume has nothing left to do.
        with serving(ServiceConfig(
            port=0, store=str(tmp_path / "store.jsonl"),
            workers=2, executor="thread", resume=True,
        )) as (_server, session):
            counts = session.get_campaign(campaign_id).counts
        # Whatever was running at stop() finished and recorded; only
        # never-started queued work (at most 2 - running) remains.
        assert counts["failed"] == 0
        assert counts["ok"] + counts["cached"] >= 1
