"""The asyncio HTTP job server (stdlib only).

A deliberately small HTTP/1.1 implementation over ``asyncio.start_server``
-- request line + headers + Content-Length body in, JSON or JSONL out.
No external web framework: the container bakes in only the standard
toolchain, and the API surface is a dozen routes.

Connections are persistent where the framing allows it.  A JSON
response carries ``Content-Length``, so the connection then waits for
the next request; it ends when the client closes it, asks for
``Connection: close``, speaks HTTP/1.0, or sends a request head that
cannot be parsed (answered 400, then closed).  The two JSONL routes
(``/stream``, ``/results``) have no length -- the client reads lines
until EOF -- so they announce ``Connection: close`` and end the
connection.  A connection that stays silent between requests for
``IDLE_CONNECTION_S`` is closed, and :meth:`JobServer.stop` closes the
idle ones at once.  The same bound covers a request's body: a client
that declares a length and then stalls is closed when it runs out.

REST surface (see docs/SERVICE.md for the full contract)::

    GET  /health                        liveness + version
    GET  /api/store                     backend stats, dedup counters
    POST /api/campaigns                 submit a campaign document/specs
    GET  /api/campaigns                 list campaigns
    GET  /api/campaigns/<id>            status + counts
    GET  /api/campaigns/<id>/jobs       job summaries (filterable)
    GET  /api/campaigns/<id>/results    JSONL: one record per job
    GET  /api/campaigns/<id>/stream     JSONL: live completion events
    POST /api/campaigns/<id>/cancel     cancel queued work
    POST /api/jobs                      submit one spec
    GET  /api/jobs                      query jobs across campaigns
    GET  /api/jobs/<id>                 one job, with spec + metrics

Execution rides :func:`repro.orchestrate.runner.execute_job` in a
process pool (thread pool or inline for tests), gated by the
:class:`~repro.service.scheduler.FairScheduler` so the pool only ever
holds jobs fairness already admitted.  Results are bit-identical to
``repro batch`` because both paths run the same ``execute_job`` on the
same specs.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import json
import multiprocessing
import signal
import threading
import time
import urllib.parse

from repro.errors import ConfigError
from repro.observe.logbook import get_logger
from repro.orchestrate.campaign import parse_campaign
from repro.orchestrate.pool import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
)
from repro.orchestrate.runner import execute_job
from repro.orchestrate.spec import JobSpec
from repro.orchestrate.store import BaseResultStore, open_store
from repro.service.journal import CampaignJournal, default_journal_path
from repro.service.model import CampaignState
from repro.service.scheduler import FairScheduler, TenantQuota
from repro.service.state import ServiceState

logger = get_logger("service")

API_VERSION = 1
MAX_BODY_BYTES = 256 << 20  # campaign documents can be large; specs are not
MAX_HEADER_BYTES = 64 << 10
IDLE_CONNECTION_S = 30.0  # a kept connection may idle (or stall) this long
TENANT_HEADER = "x-repro-tenant"
JSONL_EVENTS_PER_WRITE = 256


class ServiceConfig:
    """Server wiring: where to listen, how to execute, how to fair-share."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8642,
        store: str | BaseResultStore = "sqlite:repro-store",
        workers: int = 2,
        executor: str = "process",
        max_inflight_per_tenant: int | None = None,
        rate: float | None = None,
        burst: int = 4,
        journal: str | bool | None = None,
        resume: bool = False,
        job_timeout_s: float | None = None,
        retries: int = 1,
        drain_timeout_s: float = 30.0,
    ) -> None:
        if executor not in ("process", "thread"):
            raise ConfigError(
                f"executor must be 'process' or 'thread', got {executor!r}"
            )
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.store = store
        self.workers = workers
        self.executor = executor
        # journal: None = derive a path beside the store, a string names
        # the path explicitly, False disables durability entirely.
        self.journal = journal
        self.resume = resume
        self.job_timeout_s = job_timeout_s
        self.retries = retries
        self.drain_timeout_s = drain_timeout_s
        self.quota = TenantQuota(
            max_inflight=max_inflight_per_tenant, rate=rate, burst=burst
        )


def _detach_signal_wakeup() -> None:
    """Worker start-up: stop signalling the server's event loop.

    A forked worker inherits the loop's signal wake-up descriptor
    (Python < 3.12 does not reset it on fork), so a SIGTERM sent to a
    *worker* -- the pool terminating the siblings of a dead worker --
    was read by ``repro serve`` as its own and started a drain.
    """
    signal.set_wakeup_fd(-1)


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error"}


class JobServer:
    """One service instance: HTTP front, scheduler pump, executor."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        store = config.store
        if not isinstance(store, BaseResultStore):
            store = open_store(store)
        journal = None
        if config.journal is not False:
            if config.journal in (None, True):
                journal = CampaignJournal(default_journal_path(store))
            else:
                journal = CampaignJournal(config.journal)
        self.state = ServiceState(
            store, FairScheduler(default_quota=config.quota),
            journal=journal,
        )
        self._server: asyncio.AbstractServer | None = None
        self._pump_task: asyncio.Task | None = None
        self._running = 0
        self._executor: concurrent.futures.Executor | None = None
        self._executor_generation = 0
        self._job_tasks: set[asyncio.Task] = set()
        # Worker-death re-admissions per job, *this server life* only.
        # job.attempts counts every execution start across restarts (it
        # is journaled), so it cannot double as the crash-retry budget:
        # a job that happened to be running at each of N server crashes
        # would arrive with attempts=N and get no retry at its first
        # real worker death.
        self._crash_requeues: dict[str, int] = {}
        self._stopping = False
        # Writers of connections waiting for their next request.
        self._idle: set[asyncio.StreamWriter] = set()

    # -- lifecycle ------------------------------------------------------

    def _make_executor(self) -> None:
        if self.config.executor == "process":
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_detach_signal_wakeup,
            )
        else:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-job",
            )

    def _rebuild_executor(self, generation: int, *, reason: str) -> None:
        """Replace a broken/wedged executor with a fresh one.

        Worker death poisons a ``ProcessPoolExecutor`` for every future
        on it, and a timed-out job leaves a zombie worker computing a
        result nobody wants; both recover by killing the old pool and
        starting clean.  The generation counter makes concurrent failure
        paths rebuild exactly once: a job task that observed generation
        N only rebuilds if no other task already has.
        """
        if generation != self._executor_generation or self._stopping:
            return
        self._executor_generation += 1
        old = self._executor
        self._make_executor()
        logger.warning("rebuilding %s executor (generation %d): %s",
                       self.config.executor, self._executor_generation,
                       reason)
        if old is None:
            return
        # Kill lingering worker processes first (shutdown alone would
        # wait on — or leak — a worker stuck mid-job).  Thread executors
        # have no _processes and threads cannot be killed; their zombie
        # finishes in the background and the result is discarded.
        for proc in list(getattr(old, "_processes", {}).values()):
            try:
                proc.kill()
            except (OSError, AttributeError):  # pragma: no cover
                pass
        old.shutdown(wait=False, cancel_futures=True)

    async def start(self) -> None:
        self._make_executor()
        if self.config.resume:
            self.state.restore()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._pump_task = asyncio.ensure_future(self._pump())
        logger.info("service listening on %s:%d (workers=%d, %s executor, "
                    "store=%s)", self.config.host, self.port,
                    self.config.workers, self.config.executor,
                    self.state.store.path)

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    async def stop(self, *, drain: bool | None = None) -> None:
        """Shut down; by default *drain* first (finish running jobs).

        Graceful drain: stop accepting connections and admitting queued
        work, then wait up to ``drain_timeout_s`` for in-flight jobs to
        finish and record.  Queued jobs need no special handling -- they
        were journaled at submission and a ``--resume`` restart picks
        them up.  ``drain=False`` (or a zero timeout) is the old abrupt
        path for tests that simulate a crash.
        """
        if drain is None:
            drain = self.config.drain_timeout_s > 0
        self._stopping = True
        if self._server is not None:
            self._server.close()
            # From Python 3.12.1 wait_closed() waits for every open
            # connection, so a client parked between requests would
            # hold the drain for as long as it liked.
            for writer in list(self._idle):
                writer.close()
            await self._server.wait_closed()
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
        drained = True
        if self._job_tasks:
            if drain:
                running = [t for t in self._job_tasks if not t.done()]
                if running:
                    logger.info("draining %d running job(s) (up to %gs)",
                                len(running), self.config.drain_timeout_s)
                    done, pending = await asyncio.wait(
                        running, timeout=self.config.drain_timeout_s
                    )
                    drained = not pending
                    for task in pending:
                        task.cancel()
            else:
                drained = False
                for task in self._job_tasks:
                    task.cancel()
        if self.state.journal is not None:
            self.state.journal.append(
                {"op": "drain", "pending": self.state.scheduler.pending()}
            )
            self.state.journal.close()
        if self._executor is not None:
            # After a clean drain the workers are idle and exit promptly;
            # otherwise don't wait on wedged/zombie workers.
            self._executor.shutdown(wait=drained, cancel_futures=True)
        self.state.store.close()

    # -- execution pump -------------------------------------------------

    async def _pump(self) -> None:
        """Feed admitted jobs to the executor, one slot per worker.

        The scheduler -- not the executor queue -- holds the backlog, so
        fairness and priority apply at the moment a worker frees up, not
        at submission time.
        """
        loop = asyncio.get_running_loop()
        while True:
            self.state.work_available.clear()
            job = None
            if self._running < self.config.workers:
                job = self.state.scheduler.acquire()
            if job is None:
                delay = self.state.scheduler.next_ready_in()
                try:
                    await asyncio.wait_for(
                        self.state.work_available.wait(), timeout=delay
                    )
                except asyncio.TimeoutError:
                    pass
                continue
            self.state.mark_running(job)
            self._running += 1
            # Strong reference until done: the loop itself only weakly
            # references tasks, and a collected job task strands its
            # scheduler slot forever.
            task = loop.create_task(self._run_job(job))
            self._job_tasks.add(task)
            task.add_done_callback(self._job_tasks.discard)

    async def _run_job(self, job) -> None:
        """Execute one admitted job, surviving worker death and timeouts.

        * A worker process dying mid-job (``BrokenExecutor``) rebuilds
          the pool and re-admits the job, up to ``config.retries``
          worker-death requeues per job -- parity with the crash-retry
          budget in :mod:`repro.orchestrate.pool`, which the service
          path previously bypassed.  The budget counts *crashes*, not
          ``job.attempts``: attempts also grow across server-restart
          resumes, which must not eat into it.
        * A job exceeding ``config.job_timeout_s`` records a ``timeout``
          failure and the pool is rebuilt so its zombie worker dies too.
        """
        loop = asyncio.get_running_loop()
        generation = self._executor_generation
        start = time.perf_counter()
        timeout = self.config.job_timeout_s
        try:
            future = loop.run_in_executor(
                self._executor, execute_job, job.spec
            )
            if timeout is not None:
                metrics = await asyncio.wait_for(future, timeout=timeout)
            else:
                metrics = await future
            failure = None
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            raise
        except asyncio.TimeoutError as exc:
            metrics = None
            if timeout is None:
                # Not wait_for: the job itself raised a TimeoutError.
                failure = {
                    "kind": FAILURE_EXCEPTION,
                    "message": f"{type(exc).__name__}: {exc}",
                }
            else:
                self._rebuild_executor(
                    generation,
                    reason=f"job {job.job_id} exceeded {timeout:g}s timeout",
                )
                failure = {
                    "kind": FAILURE_TIMEOUT,
                    "message": f"exceeded per-job timeout of {timeout:g}s",
                }
        except concurrent.futures.BrokenExecutor as exc:
            # Worker process died under the job (OOM kill, segfault,
            # SIGKILL).  Rebuild the poisoned pool, then either re-admit
            # the orphan (bounded budget) or record an honest crash.
            self._rebuild_executor(
                generation, reason=f"worker death under {job.job_id}: {exc}"
            )
            self._running -= 1
            if self._stopping:
                return
            crashes = self._crash_requeues.get(job.job_id, 0) + 1
            if crashes <= self.config.retries:
                self._crash_requeues[job.job_id] = crashes
                logger.warning(
                    "re-admitting %s after worker death "
                    "(crash %d/%d, attempt %d)",
                    job.job_id, crashes, self.config.retries,
                    job.attempts,
                )
                self.state.requeue(
                    job, reason=f"worker died: {type(exc).__name__}"
                )
                return
            self.state.finish(
                job,
                metrics=None,
                failure={
                    "kind": FAILURE_CRASH,
                    "message": (
                        f"worker died ({type(exc).__name__}: {exc}) "
                        f"after {job.attempts} attempt(s)"
                    ),
                },
                elapsed_s=time.perf_counter() - start,
            )
            return
        except BaseException as exc:
            metrics = None
            failure = {
                "kind": FAILURE_EXCEPTION,
                "message": f"{type(exc).__name__}: {exc}",
            }
        elapsed = time.perf_counter() - start
        self._running -= 1
        self._crash_requeues.pop(job.job_id, None)
        self.state.finish(
            job, metrics=metrics, failure=failure, elapsed_s=elapsed
        )

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while await self._serve_request(reader, writer):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_request(self, reader, writer) -> bool:
        """Answer one request; True when the connection can carry another."""
        self._idle.add(writer)
        # One deadline for the whole request, head and body: a client
        # that stalls inside a declared body is closed like an idle one.
        deadline = asyncio.get_running_loop().call_later(
            IDLE_CONNECTION_S, writer.close
        )
        try:
            try:
                head = await _read_head(reader)
                self._idle.discard(writer)
                if head is None:
                    return False  # hung up between requests: not an error
                method, path, query, headers, body, keep_alive = (
                    await _read_request(head, reader)
                )
            finally:
                deadline.cancel()
                self._idle.discard(writer)
        except _HttpError as exc:
            # Where the next request would start is no longer known.
            await _Reply(writer, keep_alive=False).json(
                {"error": str(exc)}, status=exc.status
            )
            return False
        reply = _Reply(writer, keep_alive)
        try:
            await self._route(method, path, query, headers, body, reply)
        except _HttpError as exc:
            await reply.json({"error": str(exc)}, status=exc.status)
        except ConfigError as exc:
            await reply.json({"error": str(exc)}, status=400)
        except Exception as exc:  # pragma: no cover - defensive
            logger.error("internal error handling %s %s: %s",
                         method, path, exc)
            await reply.json(
                {"error": f"internal error: {exc}"}, status=500
            )
        # A request that was in flight when stop() closed the idle
        # connections must not park a new one behind its back.
        return reply.keep_alive and not self._stopping

    async def _route(
        self, method, path, query, headers, body, reply
    ) -> None:
        parts = [p for p in path.split("/") if p]
        if path == "/health" and method == "GET":
            await reply.json({
                "status": "ok",
                "api_version": API_VERSION,
                "uptime_s": round(time.time() - self.state.started_at, 3),
            })
            return
        if path == "/api/store" and method == "GET":
            await reply.json(self.state.describe())
            return
        if parts[:2] == ["api", "campaigns"]:
            await self._route_campaigns(
                method, parts[2:], query, headers, body, reply
            )
            return
        if parts[:2] == ["api", "jobs"]:
            await self._route_jobs(
                method, parts[2:], query, headers, body, reply
            )
            return
        raise _HttpError(404, f"no such route: {method} {path}")

    # -- campaign routes ------------------------------------------------

    async def _route_campaigns(
        self, method, rest, query, headers, body, reply
    ) -> None:
        if not rest:
            if method == "POST":
                campaign = self._submit(body or {}, headers)
                await reply.json(campaign.as_dict())
            elif method == "GET":
                await reply.json({
                    "campaigns": [
                        c.as_dict() for c in self.state.campaigns.values()
                    ]
                })
            else:
                raise _HttpError(405, f"{method} not allowed here")
            return
        campaign = self.state.find_campaign(rest[0])
        if campaign is None:
            raise _HttpError(404, f"no such campaign: {rest[0]}")
        sub = rest[1] if len(rest) > 1 else None
        if sub is None and method == "GET":
            await reply.json(campaign.as_dict())
        elif sub == "cancel" and method == "POST":
            cancelled = self.state.cancel_campaign(campaign)
            await reply.json({
                "id": campaign.campaign_id,
                "cancelled": cancelled,
                "status": campaign.status,
            })
        elif sub == "jobs" and method == "GET":
            jobs = self.state.list_jobs(
                campaign_id=campaign.campaign_id,
                status=query.get("status"),
            )
            await reply.json({
                "jobs": [j.as_dict(with_spec=False) for j in jobs]
            })
        elif sub == "results" and method == "GET":
            async def dump():
                yield (job.as_dict() for job in campaign.jobs)
            await reply.jsonl(dump())
        elif sub == "stream" and method == "GET":
            try:
                since = int(query.get("since", 0) or 0)
            except ValueError:
                raise _HttpError(400, f"bad since cursor: {query['since']!r}")
            await reply.jsonl(
                self.state.stream_events(campaign, since=since)
            )
        else:
            raise _HttpError(404, f"no such campaign route: {sub}")

    def _submit(self, body: dict, headers: dict) -> CampaignState:
        """Submission of a campaign document or a raw spec list."""
        if not isinstance(body, dict):
            raise _HttpError(400, "submission body must be a JSON object")
        if "document" in body:
            name, specs = parse_campaign(body["document"])
        elif "specs" in body:
            specs = [JobSpec.from_dict(d) for d in body["specs"]]
            name = str(body.get("name", f"specs-{len(specs)}"))
        else:
            raise _HttpError(
                400, "submission needs 'document' (campaign) or 'specs'"
            )
        return self._submit_specs(name, specs, body, headers)

    def _submit_specs(
        self, name: str, specs: list[JobSpec], body: dict, headers: dict
    ) -> CampaignState:
        """Common submission path once the specs are built."""
        tenant = str(
            body.get("tenant")
            or headers.get(TENANT_HEADER)
            or "default"
        )
        priority = int(body.get("priority", 0))
        if not specs:
            raise _HttpError(400, "submission contains no jobs")
        campaign = self.state.submit(
            name, specs, tenant=tenant, priority=priority
        )
        logger.info(
            "campaign %s (%s): %d job(s) from tenant %s, %d cached, "
            "%d coalesced",
            campaign.campaign_id, name, len(specs), tenant,
            campaign.counts()["cached"],
            sum(1 for j in campaign.jobs if j.coalesced_with),
        )
        return campaign

    # -- job routes -----------------------------------------------------

    async def _route_jobs(
        self, method, rest, query, headers, body, reply
    ) -> None:
        if not rest:
            if method == "POST":
                body = body or {}
                if "spec" not in body:
                    raise _HttpError(400, "job submission needs 'spec'")
                spec = JobSpec.from_dict(body["spec"])
                name = str(body.get("name", spec.label or spec.key()))
                campaign = self._submit_specs(name, [spec], body, headers)
                await reply.json(
                    campaign.jobs[0].as_dict(with_spec=False)
                )
            elif method == "GET":
                campaign_id = query.get("campaign")
                if campaign_id is not None:
                    found = self.state.find_campaign(campaign_id)
                    campaign_id = found.campaign_id if found else "<none>"
                jobs = self.state.list_jobs(
                    campaign_id=campaign_id,
                    tenant=query.get("tenant"),
                    status=query.get("status"),
                )
                await reply.json({
                    "jobs": [j.as_dict(with_spec=False) for j in jobs]
                })
            else:
                raise _HttpError(405, f"{method} not allowed here")
            return
        job = self.state.jobs.get(rest[0])
        if job is None or rest[1:]:
            raise _HttpError(404, f"no such job: {'/'.join(rest)}")
        if method != "GET":
            raise _HttpError(405, f"{method} not allowed here")
        await reply.json(job.as_dict())


# -- wire helpers -------------------------------------------------------


async def _read_head(reader) -> bytes | None:
    """The next request's head, or None when the client hung up first."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise _HttpError(413, "request head too large")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _HttpError(400, "truncated request")
    if len(head) > MAX_HEADER_BYTES:
        raise _HttpError(413, "request head too large")
    return head


async def _read_request(head: bytes, reader):
    """Parse one HTTP request and read its body:
    (method, path, query, headers, json_body, keep_alive)."""
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError:
        raise _HttpError(400, f"malformed request line: {lines[0]!r}")
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    parsed = urllib.parse.urlsplit(target)
    query = {
        k: v[0]
        for k, v in urllib.parse.parse_qs(parsed.query).items()
    }
    body = None
    declared = headers.get("content-length") or "0"
    if not declared.isdecimal():
        # A length that cannot be trusted is a body that cannot be
        # skipped, and the next request on this connection hides in it.
        raise _HttpError(400, f"bad Content-Length: {declared!r}")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body of {length} bytes exceeds limit")
    if length:
        raw = await reader.readexactly(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}")
    keep_alive = (
        version.strip().upper() == "HTTP/1.1"
        and headers.get("connection", "").lower() != "close"
    )
    return method.upper(), parsed.path, query, headers, body, keep_alive


class _Reply:
    """One request's answer, and whether the connection outlives it.

    A JSON body carries Content-Length, so another request can follow
    it.  JSONL has no length: the client reads lines until the
    connection closes, which is what makes live campaign streaming work
    over plain ``http.client``, and is why a JSONL reply ends the
    connection.
    """

    def __init__(self, writer, keep_alive: bool) -> None:
        self.writer = writer
        self.keep_alive = keep_alive

    def _head(
        self, status: int, content_type: str, extra: str = ""
    ) -> bytes:
        reason = _REASONS.get(status, "?")
        if not self.keep_alive:
            extra += "Connection: close\r\n"
        return (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n{extra}\r\n"
        ).encode("latin-1")

    async def json(self, obj, status: int = 200) -> None:
        payload = (json.dumps(obj) + "\n").encode()
        self.writer.write(
            self._head(status, "application/json",
                       f"Content-Length: {len(payload)}\r\n")
            + payload
        )
        await self.writer.drain()

    async def jsonl(self, batches) -> None:
        """Stream an async iterator of batches of dicts as JSON Lines.

        A batch is what its producer had ready at once; it goes out in
        writes of up to ``JSONL_EVENTS_PER_WRITE`` lines, each drained
        before the next is encoded, so a large dump never sits in
        memory whole.
        """
        self.keep_alive = False
        writer = self.writer
        writer.write(self._head(200, "application/jsonl"))
        await writer.drain()
        async for batch in batches:
            events = iter(batch)
            while chunk := b"".join(
                (json.dumps(event) + "\n").encode()
                for event in itertools.islice(events, JSONL_EVENTS_PER_WRITE)
            ):
                writer.write(chunk)
                await writer.drain()


# -- embedding and CLI entrypoints --------------------------------------


def run_service(config: ServiceConfig) -> None:
    """Run a server in the foreground until interrupted (``repro serve``).

    SIGTERM/SIGINT trigger a *graceful drain*: stop accepting, let
    running jobs finish and record (bounded by ``drain_timeout_s``),
    journal the rest for a later ``--resume``.  A second signal -- or a
    SIGKILL -- is the crash case the journal exists for.
    """
    async def main() -> None:
        server = JobServer(config)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX loop; KeyboardInterrupt still works
        try:
            await stop.wait()
            logger.info("signal received; draining")
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    logger.info("service stopped")


class ServiceThread:
    """A live server on a background thread, for tests and benchmarks.

    ::

        with ServiceThread(ServiceConfig(port=0, executor="thread")) as url:
            Session(url).submit_campaign(...)
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.server: JobServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._drain: bool | None = None

    def start(self) -> str:
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover
            raise RuntimeError("service thread failed to start in 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}"
            )
        assert self.server is not None
        return self.server.url

    def _main(self) -> None:
        async def body() -> None:
            self.server = JobServer(self.config)
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self._stop.wait()
            await self.server.stop(drain=self._drain)

        asyncio.run(body())

    def stop(self, *, drain: bool | None = None) -> None:
        """Stop the server; ``drain=False`` simulates an unclean death
        (running jobs abandoned, queued work left to the journal)."""
        self._drain = drain
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=30)

    @property
    def url(self) -> str:
        assert self.server is not None
        return self.server.url

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
