"""In-memory service state: dedup, coalescing, events, cancellation.

One :class:`ServiceState` instance lives on the server's event loop.
Submission resolves every spec through three gates, cheapest first:

1. **Store dedup** -- the spec's content key already has a successful
   record (from any tenant, any campaign, any prior run): the job
   resolves as ``cached`` instantly, no execution, no queueing.
2. **In-flight coalescing** -- the same key is already queued or
   running for someone else: the new job becomes a *follower* of that
   primary and resolves with the primary's result.  A thousand tenants
   submitting the same sweep costs one execution.
3. **Queue** -- genuinely new work enters the
   :class:`~repro.service.scheduler.FairScheduler`.

Completion records through the pluggable result store (so restarts
resume via gate 1) and appends a JSONL-able event to the owning
campaign's log; streams (`GET .../stream`) replay the log then wait on
the shared condition for more.

Durability: every mutation that must survive a crash (submission,
execution start, requeue after a worker death, terminal transition,
cancellation) is journaled through an attached
:class:`~repro.service.journal.CampaignJournal` *before* it becomes
externally visible -- a submission as one write of all its ops, every
later transition as a write of its own;
:meth:`ServiceState.restore` replays the journal on
``repro serve --resume`` so queued and in-flight work is re-queued and
terminal jobs reappear with their events in the original order (which
is what makes client ``?since=`` stream reconnects exactly-once across
a restart).
"""

from __future__ import annotations

import asyncio
import time
from contextlib import nullcontext

from repro.observe.export import observe_headline
from repro.observe.logbook import get_logger
from repro.orchestrate.spec import JobSpec
from repro.orchestrate.store import BaseResultStore
from repro.service.journal import (
    OP_CAMPAIGN,
    OP_CANCEL,
    OP_FINISH,
    OP_JOB,
    OP_REQUEUE,
    OP_RUN,
    CampaignJournal,
)
from repro.service.model import (
    STATUS_CACHED,
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_QUEUED,
    STATUS_RUNNING,
    CampaignState,
    SubmittedJob,
    advance_ids,
)
from repro.service.scheduler import FairScheduler

logger = get_logger("service")


class ServiceState:
    """Everything the HTTP layer and the executor pump share."""

    def __init__(
        self,
        store: BaseResultStore,
        scheduler: FairScheduler,
        *,
        journal: CampaignJournal | None = None,
    ) -> None:
        self.store = store
        self.scheduler = scheduler
        self.journal = journal
        self.campaigns: dict[str, CampaignState] = {}
        self.jobs: dict[str, SubmittedJob] = {}
        self._primaries: dict[str, SubmittedJob] = {}  # key -> in-flight
        self._followers: dict[str, list[SubmittedJob]] = {}
        self.started_at = time.time()
        # Pump wake-up (new work) and stream wake-up (new events).
        self.work_available = asyncio.Event()
        self.events_cond = asyncio.Condition()
        # Notify tasks ride the loop; the loop holds only weak refs to
        # tasks, so they are retained here until done or a GC pass could
        # collect one before it runs and strand a waiting stream.
        self._notify_tasks: set[asyncio.Task] = set()
        # Counters for /api/store and the dedup benchmark.
        self.executed = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.restored = 0  # jobs re-queued by the last restore()

    def _journal(self, op: dict) -> None:
        if self.journal is not None:
            self.journal.append(op)

    def _journal_batch(self):
        if self.journal is None:
            return nullcontext()
        return self.journal.batch()

    # -- submission -----------------------------------------------------

    def submit(
        self,
        name: str,
        specs: list[JobSpec],
        *,
        tenant: str = "default",
        priority: int = 0,
    ) -> CampaignState:
        """Register a campaign: resolve dedup, queue the remainder."""
        campaign = CampaignState(name=name, tenant=tenant, priority=priority)
        self.campaigns[campaign.campaign_id] = campaign
        # The whole submission -- campaign op, job ops, the finish ops of
        # cache hits -- is one journal write, landed before anything
        # below (the pump, a stream, the HTTP response) can see it.
        with self._journal_batch():
            self._journal({
                "op": OP_CAMPAIGN,
                "campaign_id": campaign.campaign_id,
                "name": name,
                "tenant": tenant,
                "priority": priority,
                "created_at": campaign.created_at,
            })
            for spec in specs:
                job = SubmittedJob(
                    spec=spec,
                    tenant=tenant,
                    priority=priority,
                    campaign_id=campaign.campaign_id,
                    campaign=name,
                )
                campaign.jobs.append(job)
                self.jobs[job.job_id] = job
                self._journal({
                    "op": OP_JOB,
                    "job_id": job.job_id,
                    "campaign_id": campaign.campaign_id,
                    "spec": spec.to_dict(),
                    "tenant": tenant,
                    "priority": priority,
                    "submitted_at": job.submitted_at,
                })
                self._admit(job)
        self.work_available.set()
        self._notify_streams()
        return campaign

    def _admit(self, job: SubmittedJob) -> None:
        """Run one job through the three submission gates."""
        key = job.key
        metrics = self.store.cached_metrics(key)
        if metrics is not None:
            job.status = STATUS_CACHED
            job.from_cache = True
            job.metrics = metrics
            job.finished_at = time.time()
            self.cache_hits += 1
            self._journal_finish(job)
            self._append_event(self.campaigns[job.campaign_id], job)
            return
        primary = self._primaries.get(key)
        if primary is not None:
            job.coalesced_with = primary.job_id
            self._followers.setdefault(key, []).append(job)
            self.coalesced += 1
            return
        self._primaries[key] = job
        self.scheduler.add(job)

    # -- execution lifecycle (driven by the server pump) ---------------

    def mark_running(self, job: SubmittedJob) -> None:
        job.status = STATUS_RUNNING
        job.started_at = time.time()
        job.attempts += 1
        self._journal({
            "op": OP_RUN, "job_id": job.job_id, "attempt": job.attempts,
        })

    def requeue(self, job: SubmittedJob, *, reason: str) -> None:
        """Re-admit a job whose worker died before producing a result.

        The in-flight slot is released, the attempt already charged by
        :meth:`mark_running` stays on the envelope (so the retry budget
        and the recorded ``attempts`` are honest), and the job re-enters
        the scheduler.
        """
        self.scheduler.release(job.tenant)
        job.status = STATUS_QUEUED
        job.started_at = None
        self._journal({
            "op": OP_REQUEUE,
            "job_id": job.job_id,
            "attempt": job.attempts,
            "reason": reason,
        })
        self.scheduler.add(job)
        self.work_available.set()
        self._notify_streams()

    def finish(
        self,
        job: SubmittedJob,
        *,
        metrics: dict | None,
        failure: dict | None,
        elapsed_s: float,
        attempts: int | None = None,
    ) -> None:
        """Resolve a primary job and every follower coalesced onto it."""
        job.status = STATUS_OK if failure is None else STATUS_FAILED
        job.metrics = metrics
        job.failure = failure
        job.elapsed_s = elapsed_s
        job.attempts = attempts if attempts is not None else (job.attempts or 1)
        job.finished_at = time.time()
        self.executed += 1
        self.scheduler.release(job.tenant)
        self.store.record(
            job.key,
            spec_dict=job.spec.to_dict(),
            status=job.status,
            metrics=metrics,
            failure=failure,
            elapsed_s=elapsed_s,
            attempts=job.attempts,
            campaign=job.campaign,
        )
        self._primaries.pop(job.key, None)
        self._journal_finish(job)
        self._append_event(self.campaigns[job.campaign_id], job)
        for follower in self._followers.pop(job.key, []):
            if follower.status == STATUS_CANCELLED:
                continue
            follower.status = job.status
            follower.metrics = metrics
            follower.failure = failure
            follower.from_cache = failure is None
            follower.finished_at = job.finished_at
            self._journal_finish(follower)
            self._append_event(
                self.campaigns[follower.campaign_id], follower
            )
        self.work_available.set()
        self._notify_streams()

    # -- cancellation ---------------------------------------------------

    def cancel_campaign(self, campaign: CampaignState) -> int:
        """Cancel queued work; running jobs finish (and cache) normally."""
        campaign.cancelled = True
        self._journal({"op": OP_CANCEL, "campaign_id": campaign.campaign_id})
        cid = campaign.campaign_id
        dropped = self.scheduler.drop(lambda j: j.campaign_id == cid)
        for job in dropped:
            self._primaries.pop(job.key, None)
            # The primary is gone: promote the first follower, if any.
            followers = self._followers.pop(job.key, [])
            live = [f for f in followers if f.status != STATUS_CANCELLED]
            if live:
                head, rest = live[0], live[1:]
                head.coalesced_with = None
                self._primaries[head.key] = head
                self.scheduler.add(head)
                if rest:
                    self._followers[head.key] = rest
                    for f in rest:
                        f.coalesced_with = head.job_id
        cancelled = list(dropped)
        dropped_ids = {job.job_id for job in dropped}
        for job in campaign.jobs:
            if job.status == STATUS_QUEUED and job.job_id not in dropped_ids:
                # Queued followers of another campaign's primary.
                cancelled.append(job)
        for job in cancelled:
            job.status = STATUS_CANCELLED
            job.finished_at = time.time()
            self._journal_finish(job)
            self._append_event(campaign, job)
        self._notify_streams()
        return len(cancelled)

    # -- events and queries ---------------------------------------------

    def _journal_finish(self, job: SubmittedJob) -> None:
        self._journal({
            "op": OP_FINISH,
            "job_id": job.job_id,
            "status": job.status,
            "from_cache": job.from_cache,
            "elapsed_s": job.elapsed_s,
            "attempts": job.attempts,
            "failure": job.failure,
            "coalesced_with": job.coalesced_with,
            "finished_at": job.finished_at,
        })

    def _append_event(self, campaign: CampaignState, job: SubmittedJob) -> None:
        event = {
            "event": "job",
            "seq": len(campaign.events),
            "id": job.job_id,
            "key": job.key,
            "label": job.spec.label,
            "status": job.status,
            "from_cache": job.from_cache,
            "elapsed_s": job.elapsed_s,
            "metrics": job.metrics,
            "failure": job.failure,
        }
        observe = (job.metrics or {}).get("observe")
        if observe:
            event["observe"] = observe_headline(observe)
        campaign.events.append(event)

    def _notify_streams(self) -> None:
        async def notify() -> None:
            async with self.events_cond:
                self.events_cond.notify_all()

        # Mutators stay synchronous (no await mid-bookkeeping); the
        # notify rides the loop as its own task.  Without a running
        # loop (direct unit-test use) there are no streams to wake.
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        task = loop.create_task(notify())
        self._notify_tasks.add(task)
        task.add_done_callback(self._notify_tasks.discard)

    async def stream_events(self, campaign: CampaignState, since: int = 0):
        """Yield the campaign's events in batches: replay from ``since``,
        then live.

        Each batch is the list of every event available when it is
        taken (the closing ``end`` event included), so the HTTP layer
        can send it as one write.  ``since`` is the reconnect cursor: a
        client that saw events ``0..n-1`` before losing its connection
        asks for ``since=n`` and receives each remaining event exactly
        once.
        """
        cursor = max(0, since)
        while True:
            batch = campaign.events[cursor:]
            cursor += len(batch)
            if campaign.done:
                batch.append({
                    "event": "end",
                    "status": campaign.status,
                    "counts": campaign.counts(),
                })
                yield batch
                return
            if batch:
                yield batch
            async with self.events_cond:
                # Re-check under the condition: an event appended since
                # the unlocked check must not strand this stream.
                if cursor >= len(campaign.events) and not campaign.done:
                    await self.events_cond.wait()

    def find_campaign(self, ident: str) -> CampaignState | None:
        got = self.campaigns.get(ident)
        if got is not None:
            return got
        # By name: the *newest* match wins (dict preserves insertion ==
        # creation order), so resubmitting under a reused name never
        # pins queries to a stale campaign.
        found = None
        for campaign in self.campaigns.values():
            if campaign.name == ident:
                found = campaign
        return found

    def list_jobs(
        self,
        *,
        campaign_id: str | None = None,
        tenant: str | None = None,
        status: str | None = None,
    ) -> list[SubmittedJob]:
        out = []
        for job in self.jobs.values():
            if campaign_id is not None and job.campaign_id != campaign_id:
                continue
            if tenant is not None and job.tenant != tenant:
                continue
            if status is not None and job.status != status:
                continue
            out.append(job)
        return out

    def describe(self) -> dict:
        out = {
            "uptime_s": round(time.time() - self.started_at, 3),
            "campaigns": len(self.campaigns),
            "jobs": len(self.jobs),
            "pending": self.scheduler.pending(),
            "inflight": self.scheduler.inflight(),
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "restored": self.restored,
            "store": self.store.describe(),
        }
        if self.journal is not None:
            out["journal"] = self.journal.describe()
        return out

    # -- crash recovery -------------------------------------------------

    def restore(self) -> dict:
        """Rebuild state from the attached journal (``serve --resume``).

        Three phases:

        1. Replay the op stream: recreate campaigns and job envelopes
           with their original ids, then apply terminal transitions *in
           journal order* so every campaign's event log comes back with
           the same events at the same ``seq`` numbers clients already
           saw -- that is what makes ``?since=`` reconnects exactly-once
           across the restart.
        2. Atomically compact the journal to the rebuilt snapshot
           (repeated crash/resume cycles cannot grow it unboundedly).
        3. Re-admit every non-terminal job through the submission gates:
           work that recorded to the store before the crash but lost its
           ``finish`` op resolves as ``cached`` (no double execution);
           genuinely unfinished work -- queued or mid-execution at the
           crash -- re-queues and re-executes (safe: results are
           content-keyed and recording is idempotent).
        """
        if self.journal is None:
            return {"campaigns": 0, "jobs": 0, "requeued": 0, "finished": 0}
        ops = self.journal.load()
        pending: list[SubmittedJob] = []
        finished = 0
        for op in ops:
            kind = op["op"]
            if kind == OP_CAMPAIGN:
                campaign = CampaignState(
                    name=op["name"],
                    tenant=op.get("tenant", "default"),
                    priority=op.get("priority", 0),
                    campaign_id=op["campaign_id"],
                    created_at=op.get("created_at", time.time()),
                )
                self.campaigns[campaign.campaign_id] = campaign
            elif kind == OP_CANCEL:
                campaign = self.campaigns.get(op["campaign_id"])
                if campaign is not None:
                    campaign.cancelled = True
            elif kind == OP_JOB:
                campaign = self.campaigns.get(op["campaign_id"])
                if campaign is None:
                    continue
                job = SubmittedJob(
                    spec=JobSpec.from_dict(op["spec"]),
                    tenant=op.get("tenant", "default"),
                    priority=op.get("priority", 0),
                    campaign_id=campaign.campaign_id,
                    campaign=campaign.name,
                    submitted_at=op.get("submitted_at", time.time()),
                    job_id=op["job_id"],
                )
                campaign.jobs.append(job)
                self.jobs[job.job_id] = job
            elif kind in (OP_RUN, OP_REQUEUE):
                job = self.jobs.get(op["job_id"])
                if job is not None:
                    job.attempts = max(job.attempts, op.get("attempt", 0))
            elif kind == OP_FINISH:
                job = self.jobs.get(op["job_id"])
                if job is None or job.done:
                    continue
                self._restore_finish(job, op)
                finished += 1
            # Unknown ops (newer server version): ignored, not fatal.
        advance_ids(list(self.jobs), list(self.campaigns))
        self.journal.rewrite(list(self.snapshot_ops()))
        for campaign in self.campaigns.values():
            for job in campaign.jobs:
                if job.done:
                    continue
                if campaign.cancelled:
                    # The cancel op covers jobs whose cancelled-finish
                    # line was lost to the crash mid-cancellation.
                    job.status = STATUS_CANCELLED
                    job.finished_at = time.time()
                    self._journal_finish(job)
                    self._append_event(campaign, job)
                    continue
                job.status = STATUS_QUEUED
                pending.append(job)
        for job in pending:
            self._admit(job)
        self.restored = sum(
            1 for job in pending if job.status in (STATUS_QUEUED, STATUS_RUNNING)
        )
        if self.campaigns:
            logger.info(
                "resume: %d campaign(s), %d job(s) restored -- "
                "%d already finished, %d re-queued, %d resolved from cache",
                len(self.campaigns), len(self.jobs), finished,
                self.restored, len(pending) - self.restored,
            )
        self.work_available.set()
        return {
            "campaigns": len(self.campaigns),
            "jobs": len(self.jobs),
            "requeued": self.restored,
            "finished": finished,
        }

    def _restore_finish(self, job: SubmittedJob, op: dict) -> None:
        """Apply a journaled terminal transition during replay."""
        job.status = op["status"]
        job.from_cache = bool(op.get("from_cache"))
        job.elapsed_s = op.get("elapsed_s", 0.0)
        job.attempts = max(job.attempts, op.get("attempts", 0))
        job.failure = op.get("failure")
        job.coalesced_with = op.get("coalesced_with")
        job.finished_at = op.get("finished_at")
        if job.status in (STATUS_OK, STATUS_CACHED) and job.failure is None:
            # Metrics live in the store, keyed by content: the journal
            # only records *that* the job resolved.
            record = self.store.get(job.key)
            if record is not None:
                job.metrics = record.get("metrics")
        self._append_event(self.campaigns[job.campaign_id], job)

    def snapshot_ops(self):
        """The compacted op stream equivalent to the current state.

        Campaign and job ops first (structure), then finish ops in
        per-campaign event order (history) -- replaying this snapshot
        rebuilds identical event logs.
        """
        for campaign in self.campaigns.values():
            yield {
                "op": OP_CAMPAIGN,
                "campaign_id": campaign.campaign_id,
                "name": campaign.name,
                "tenant": campaign.tenant,
                "priority": campaign.priority,
                "created_at": campaign.created_at,
            }
            if campaign.cancelled:
                yield {"op": OP_CANCEL, "campaign_id": campaign.campaign_id}
            for job in campaign.jobs:
                yield {
                    "op": OP_JOB,
                    "job_id": job.job_id,
                    "campaign_id": campaign.campaign_id,
                    "spec": job.spec.to_dict(),
                    "tenant": job.tenant,
                    "priority": job.priority,
                    "submitted_at": job.submitted_at,
                }
        for campaign in self.campaigns.values():
            for event in campaign.events:
                job = self.jobs.get(event["id"])
                if job is not None and job.done:
                    yield {
                        "op": OP_FINISH,
                        "job_id": job.job_id,
                        "status": job.status,
                        "from_cache": job.from_cache,
                        "elapsed_s": job.elapsed_s,
                        "attempts": job.attempts,
                        "failure": job.failure,
                        "coalesced_with": job.coalesced_with,
                        "finished_at": job.finished_at,
                    }
