"""One journal write per submission keeps crash recovery exact.

``ServiceState.submit`` holds its ops (campaign, jobs, the finish ops of
cache hits) in ``CampaignJournal.batch`` and lands them as one write
through a handle the journal keeps open.  What a crash can leave behind
is therefore a batch cut at any byte; these tests cut it at every one.
"""

import json

import pytest

from repro.orchestrate import ResultStore
from repro.service.journal import CampaignJournal
from repro.service.model import STATUS_CACHED
from repro.service.scheduler import FairScheduler
from repro.service.server import ServiceConfig, ServiceThread
from repro.service.state import ServiceState

from tests.service.test_state import tiny_spec

LOADS = (0.05, 0.1, 0.2)


def populated_store(tmp_path, specs) -> ResultStore:
    store = ResultStore(tmp_path / "results.jsonl")
    for spec in specs:
        store.record(spec.key(), spec_dict=spec.to_dict(), status="ok",
                     metrics={"load": spec.workload.param("load")})
    return store


def state_over(store, journal) -> ServiceState:
    return ServiceState(store, FairScheduler(), journal=journal)


def cached_submission(tmp_path, specs, open_journal):
    """Submit all-cached ``specs``; the state and the journal's bytes."""
    state = state_over(populated_store(tmp_path, specs),
                       open_journal(tmp_path / "journal.jsonl"))
    state.submit("sweep", specs, tenant="alice", priority=2)
    return state, (tmp_path / "journal.jsonl").read_bytes()


class TestSubmissionIsOneBatch:
    def test_op_sequence_of_a_cached_submission(self, tmp_path, open_journal):
        """Op for op what per-op appends wrote: the campaign, then each
        job directly followed by its cached finish."""
        specs = [tiny_spec(seed=seed) for seed in range(10)]
        state, _ = cached_submission(tmp_path, specs, open_journal)
        [campaign] = state.campaigns.values()
        ops = state.journal.load()
        assert [op["op"] for op in ops] == ["campaign"] + ["job", "finish"] * 10
        assert ops[0] == {
            "op": "campaign", "campaign_id": campaign.campaign_id,
            "name": "sweep", "tenant": "alice", "priority": 2,
            "created_at": campaign.created_at,
        }
        for job, job_op, finish_op in zip(campaign.jobs, ops[1::2], ops[2::2]):
            assert job_op == {
                "op": "job", "job_id": job.job_id,
                "campaign_id": campaign.campaign_id,
                "spec": job.spec.to_dict(), "tenant": "alice", "priority": 2,
                "submitted_at": job.submitted_at,
            }
            assert finish_op == {
                "op": "finish", "job_id": job.job_id, "status": STATUS_CACHED,
                "from_cache": True, "elapsed_s": 0.0, "attempts": 0,
                "failure": None, "coalesced_with": None,
                "finished_at": job.finished_at,
            }
        assert state.journal.appended == 21

    def test_raising_submit_journals_what_it_reached(self, tmp_path, open_journal):
        """The batch lands in a ``finally``: a submission that dies on
        its third spec leaves the ops of the first two, as before."""
        state = state_over(ResultStore(tmp_path / "results.jsonl"),
                           open_journal(tmp_path / "journal.jsonl"))
        with pytest.raises(AttributeError):
            state.submit("broken", [tiny_spec(0.05), tiny_spec(0.1), object()])
        assert [op["op"] for op in state.journal.load()] == [
            "campaign", "job", "job",
        ]
        # The failed batch is closed: the next op is written at once.
        state._journal({"op": "cancel", "campaign_id": "c-none"})
        assert state.journal.load()[-1]["op"] == "cancel"

    def test_single_transitions_still_write_immediately(self, tmp_path, open_journal):
        state = state_over(ResultStore(tmp_path / "results.jsonl"),
                           open_journal(tmp_path / "journal.jsonl"))
        state.submit("sweep", [tiny_spec()])
        job = state.scheduler.acquire()
        state.mark_running(job)
        assert state.journal.load()[-1]["op"] == "run"
        state.requeue(job, reason="worker died")
        assert state.journal.load()[-1]["op"] == "requeue"


class TestTornBatch:
    def test_any_cut_loads_as_whole_lines_only(self, tmp_path, open_journal):
        specs = [tiny_spec(load) for load in LOADS]
        state, data = cached_submission(tmp_path, specs, open_journal)
        ops = state.journal.load()
        assert len(ops) == 7
        torn = CampaignJournal(tmp_path / "torn.jsonl")
        for cut in range(len(data) + 1):
            torn.path.write_bytes(data[:cut])
            loaded = torn.load()
            # A prefix of the op stream, holding every line that ended
            # before the cut (one more if the cut took only its newline).
            assert loaded == ops[:len(loaded)]
            assert len(loaded) - data[:cut].count(b"\n") in (0, 1)

    def test_restore_from_any_torn_line(self, tmp_path, open_journal):
        """Cut inside and around every line: restore() rebuilds the jobs
        whose ``job`` line survived, and those missing their ``finish``
        line re-admit and resolve ``cached`` -- nothing re-executes."""
        specs = [tiny_spec(load) for load in LOADS]
        state, data = cached_submission(tmp_path, specs, open_journal)
        store = state.store
        ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        cuts = set()
        for start, end in zip([0] + ends, ends):
            cuts.update({start, start + 1, (start + end) // 2, end - 1, end})
        for cut in sorted(cuts):
            path = tmp_path / f"cut-{cut}.jsonl"
            path.write_bytes(data[:cut])
            whole = CampaignJournal(path).load()
            job_ids = [op["job_id"] for op in whole if op["op"] == "job"]
            finished = sum(1 for op in whole if op["op"] == "finish")

            revived = state_over(store, open_journal(path))
            report = revived.restore()
            assert report == {
                "campaigns": 1 if whole else 0, "jobs": len(job_ids),
                "requeued": 0, "finished": finished,
            }
            assert list(revived.jobs) == job_ids
            assert revived.scheduler.pending() == 0
            for job in revived.jobs.values():
                assert job.status == STATUS_CACHED
                assert job.metrics == {"load": job.spec.workload.param("load")}
            for campaign in revived.campaigns.values():
                assert [e["id"] for e in campaign.events] == job_ids
                assert [e["seq"] for e in campaign.events] == list(
                    range(len(job_ids))
                )
            # What restore() wrote replays to the same world.
            again = state_over(store, open_journal(path))
            assert again.restore()["finished"] == len(job_ids)
            assert list(again.jobs) == job_ids


class TestKeptHandle:
    def test_appends_after_rewrite_land_in_the_new_file(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        for i in range(3):
            journal.append({"op": "run", "n": i})
        journal.rewrite([{"op": "campaign"}])
        journal.append({"op": "job"})
        with journal.batch():
            journal.append({"op": "finish"})
        assert [op["op"] for op in journal.load()] == [
            "campaign", "job", "finish",
        ]
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["op"] for line in lines] == [
            "campaign", "job", "finish",
        ]

    def test_close_then_append_reopens(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "deep" / "j.jsonl")
        journal.close()  # never opened: a no-op
        journal.append({"op": "campaign"})
        journal.close()
        journal.append({"op": "job"})
        assert [op["op"] for op in journal.load()] == ["campaign", "job"]

    def test_empty_batch_writes_nothing(self, tmp_path, open_journal):
        journal = open_journal(tmp_path / "j.jsonl")
        with journal.batch():
            pass
        assert not journal.path.exists()

    @pytest.mark.parametrize("drain", [None, False])
    def test_server_stop_closes_the_handle(self, tmp_path, drain):
        config = ServiceConfig(
            port=0, store=f"sqlite:{tmp_path / 'store'}", workers=1,
            executor="thread",
        )
        thread = ServiceThread(config)
        thread.start()
        journal = thread.server.state.journal
        thread.stop(drain=drain)
        assert journal._fh is None
        assert journal.load()[-1]["op"] == "drain"
