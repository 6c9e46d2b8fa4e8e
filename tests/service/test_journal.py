"""CampaignJournal + ServiceState.restore: the crash-recovery core.

Every scenario here is a *synchronous* reconstruction: write journal
ops through one ServiceState, build a fresh ServiceState over the same
files, call restore(), and assert the rebuilt world.  The subprocess
SIGKILL version of the same story lives in
tests/integration/test_service_chaos.py.
"""

import json

from repro.orchestrate import ResultStore
from repro.service.journal import CampaignJournal, default_journal_path
from repro.service.model import (
    STATUS_CACHED,
    STATUS_CANCELLED,
    STATUS_OK,
    STATUS_QUEUED,
)
from repro.service.scheduler import FairScheduler
from repro.service.state import ServiceState

from tests.service.test_state import run_queued, tiny_spec


def make_state(tmp_path, open_journal) -> ServiceState:
    store = ResultStore(tmp_path / "results.jsonl")
    return ServiceState(
        store, FairScheduler(), journal=open_journal(tmp_path / "journal.jsonl"),
    )


def reopen(tmp_path, open_journal) -> ServiceState:
    """A fresh state over the same store + journal, as --resume builds."""
    return make_state(tmp_path, open_journal)


class TestJournalFile:
    def test_append_load_round_trip(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        ops = [{"op": "campaign", "n": i} for i in range(5)]
        for op in ops:
            journal.append(op)
        assert journal.load() == ops

    def test_load_missing_file_is_empty(self, tmp_path):
        assert CampaignJournal(tmp_path / "absent.jsonl").load() == []

    def test_torn_tail_is_skipped(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        journal.append({"op": "campaign"})
        journal.append({"op": "job", "job_id": "j-1"})
        with open(journal.path, "ab") as fh:  # crash mid-write
            fh.write(b'{"op": "finish", "job_id": "j-1", "sta')
        assert [op["op"] for op in journal.load()] == ["campaign", "job"]

    def test_garbage_lines_are_skipped_not_fatal(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        journal.append({"op": "campaign"})
        with open(journal.path, "ab") as fh:
            fh.write(b"not json at all\n")
            fh.write(b'["a", "list", "not", "a", "dict"]\n')
            fh.write(b'{"no_op_field": true}\n')
        journal.append({"op": "job"})
        assert [op["op"] for op in journal.load()] == ["campaign", "job"]

    def test_rewrite_is_atomic_and_complete(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        for i in range(10):
            journal.append({"op": "run", "n": i})
        journal.rewrite([{"op": "campaign"}, {"op": "job"}])
        assert [op["op"] for op in journal.load()] == ["campaign", "job"]
        assert not list(tmp_path.glob("*.compact-tmp"))  # temp file gone

    def test_default_journal_path_for_jsonl_store(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        assert default_journal_path(store).name == "results.jsonl.journal"


class TestRestore:
    def test_queued_jobs_requeue_after_crash(self, tmp_path, open_journal):
        state = make_state(tmp_path, open_journal)
        state.submit("sweep", [tiny_spec(0.05), tiny_spec(0.1)])

        revived = reopen(tmp_path, open_journal)
        report = revived.restore()
        assert report == {
            "campaigns": 1, "jobs": 2, "requeued": 2, "finished": 0,
        }
        campaign = revived.find_campaign("sweep")
        assert [j.status for j in campaign.jobs] == [STATUS_QUEUED] * 2
        assert revived.scheduler.pending() == 2
        # The restored queue executes exactly like a fresh submission.
        assert run_queued(revived) == 2
        assert campaign.status == "done"

    def test_finished_jobs_restore_terminal_with_metrics(self, tmp_path, open_journal):
        state = make_state(tmp_path, open_journal)
        campaign = state.submit("sweep", [tiny_spec()])
        run_queued(state)
        [event] = campaign.events

        revived = reopen(tmp_path, open_journal)
        report = revived.restore()
        assert report["finished"] == 1 and report["requeued"] == 0
        [job] = revived.find_campaign("sweep").jobs
        assert job.status == STATUS_OK
        # Metrics come back from the *store* -- the journal never
        # carries them -- and the event log replays bit-identically.
        assert job.metrics == {"load": 0.05}
        assert revived.find_campaign("sweep").events == [event]

    def test_lost_finish_line_resolves_from_cache(self, tmp_path, open_journal):
        """Crash after store.record but before the journal finish op."""
        state = make_state(tmp_path, open_journal)
        state.submit("sweep", [tiny_spec()])
        job = state.scheduler.acquire()
        state.mark_running(job)
        # Simulate the torn window: the result lands in the store but
        # the finish op never reaches the journal.
        state.store.record(
            job.key, spec_dict=job.spec.to_dict(), status="ok",
            metrics={"recovered": True},
        )

        revived = reopen(tmp_path, open_journal)
        revived.restore()
        [restored] = revived.find_campaign("sweep").jobs
        assert restored.status == STATUS_CACHED
        assert restored.metrics == {"recovered": True}
        assert revived.scheduler.pending() == 0  # no double execution

    def test_restored_ids_never_collide_with_new_ones(self, tmp_path, open_journal):
        state = make_state(tmp_path, open_journal)
        state.submit("one", [tiny_spec(0.05)])

        revived = reopen(tmp_path, open_journal)
        revived.restore()
        restored_jobs = set(revived.jobs)
        restored_campaigns = set(revived.campaigns)
        fresh = revived.submit("two", [tiny_spec(0.1)])
        assert fresh.campaign_id not in restored_campaigns
        assert fresh.jobs[0].job_id not in restored_jobs
        assert len(revived.campaigns) == 2 and len(revived.jobs) == 2

    def test_cancelled_campaign_stays_cancelled(self, tmp_path, open_journal):
        state = make_state(tmp_path, open_journal)
        campaign = state.submit("doomed", [tiny_spec(0.05), tiny_spec(0.1)])
        state.cancel_campaign(campaign)

        revived = reopen(tmp_path, open_journal)
        revived.restore()
        back = revived.find_campaign("doomed")
        assert back.status == "cancelled"
        assert all(j.status == STATUS_CANCELLED for j in back.jobs)
        assert revived.scheduler.pending() == 0

    def test_mid_cancel_crash_finishes_cancellation(self, tmp_path, open_journal):
        """Cancel op journaled, but the per-job finish lines lost."""
        state = make_state(tmp_path, open_journal)
        campaign = state.submit("doomed", [tiny_spec()])
        # Journal only the cancel marker, as if the crash hit right
        # after it was appended.
        state._journal({"op": "cancel", "campaign_id": campaign.campaign_id})

        revived = reopen(tmp_path, open_journal)
        revived.restore()
        back = revived.find_campaign("doomed")
        assert all(j.status == STATUS_CANCELLED for j in back.jobs)

    def test_restore_compacts_the_journal(self, tmp_path, open_journal):
        state = make_state(tmp_path, open_journal)
        state.submit("sweep", [tiny_spec()])
        run_queued(state)
        # Bloat: ops a compaction must not preserve verbatim.
        for i in range(50):
            state._journal({"op": "run", "job_id": "j-bogus", "attempt": i})
        size_before = (tmp_path / "journal.jsonl").stat().st_size

        revived = reopen(tmp_path, open_journal)
        revived.restore()
        size_after = (tmp_path / "journal.jsonl").stat().st_size
        assert size_after < size_before
        # Compaction is a fixpoint: a second resume is byte-identical.
        ops_once = (tmp_path / "journal.jsonl").read_text()
        again = reopen(tmp_path, open_journal)
        again.restore()
        assert (tmp_path / "journal.jsonl").read_text() == ops_once

    def test_restore_survives_torn_journal_tail(self, tmp_path, open_journal):
        state = make_state(tmp_path, open_journal)
        state.submit("sweep", [tiny_spec(0.05), tiny_spec(0.1)])
        with open(tmp_path / "journal.jsonl", "ab") as fh:
            fh.write(b'{"op": "finish", "job_id": "j-000')  # torn line

        revived = reopen(tmp_path, open_journal)
        report = revived.restore()
        assert report["requeued"] == 2

    def test_event_seqs_identical_across_restart(self, tmp_path, open_journal):
        """The exactly-once contract behind client ?since= reconnects."""
        state = make_state(tmp_path, open_journal)
        campaign = state.submit(
            "sweep", [tiny_spec(load) for load in (0.05, 0.1, 0.2)]
        )
        run_queued(state)
        before = [(e["seq"], e["id"], e["status"]) for e in campaign.events]

        revived = reopen(tmp_path, open_journal)
        revived.restore()
        after_campaign = revived.find_campaign("sweep")
        after = [
            (e["seq"], e["id"], e["status"]) for e in after_campaign.events
        ]
        assert after == before

    def test_journal_lines_are_valid_json_objects(self, tmp_path, open_journal):
        state = make_state(tmp_path, open_journal)
        state.submit("sweep", [tiny_spec()])
        run_queued(state)
        with open(tmp_path / "journal.jsonl", encoding="utf-8") as fh:
            for line in fh:
                op = json.loads(line)
                assert isinstance(op, dict) and isinstance(op["op"], str)
