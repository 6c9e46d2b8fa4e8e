"""Fluent typed client for the repro job service.

Element/collection style (after smc-python): a :class:`Session` is the
entry point, campaigns are *elements* you build fluently and submit,
and jobs are queried through lazy *collections* with chainable
filters::

    from repro.client import Session

    with Session("http://127.0.0.1:8642", tenant="alice") as s:
        camp = (
            s.campaign("clrp-sweep")
            .defaults(protocol="clrp", dims="8x8",
                      workload={"kind": "uniform", "load": 0.1,
                                "length": 64, "duration": 3000})
            .grid({"workload.load": [0.05, 0.1, 0.2]})
            .priority(5)
            .submit()
        )
        for event in camp.stream():        # live JSONL completions
            print(event.label, event.status)
        ok = camp.jobs.filter(status="ok").all()
        slow = camp.jobs.filter(lambda j: j["elapsed_s"] > 1.0).all()
        camp.jobs.filter(status="failed").resubmit()

Collections never fetch until iterated; filters compose server-side
(plain field equality the API supports) and client-side (dotted paths
and callables).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.client.transport import (
    RETRYABLE_ERRORS,
    HttpTransport,
    ServiceError,
    StreamInterrupted,
    TransportError,
    backoff_delays,
)

__all__ = [
    "Campaign",
    "CampaignBuilder",
    "Job",
    "JobCollection",
    "JobEvent",
    "ServiceError",
    "Session",
    "StreamInterrupted",
    "TransportError",
]

_SERVER_FILTERS = ("status", "tenant")


def _lookup(data: dict, path: str):
    """Resolve a dotted path (``metrics.throughput``) inside a dict."""
    node = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _finish(data: dict, end: "JobEvent") -> None:
    """Bring a campaign's ``data`` up to date from its ``end`` event.

    ``status`` and ``counts`` are all that can change after submission
    (``id``, ``name``, ``tenant``, ``priority``, ``created_at`` and
    ``jobs`` are fixed there), and the ``end`` event carries both, so a
    finished wait needs no ``refresh()`` round trip.
    """
    data["status"] = end.status
    data["counts"] = end.counts


@dataclass(frozen=True)
class JobEvent:
    """One streamed completion event (a JSONL line, typed)."""

    event: str
    seq: int | None = None
    id: str | None = None
    key: str | None = None
    label: str | None = None
    status: str | None = None
    from_cache: bool = False
    elapsed_s: float = 0.0
    metrics: dict | None = None
    failure: dict | None = None
    observe: dict | None = None
    counts: dict | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "JobEvent":
        return cls(**{
            k: data[k] for k in cls.__dataclass_fields__ if k in data
        })

    @property
    def terminal(self) -> bool:
        return self.event == "end"


class Job:
    """One job element; lazily refreshable, dict-compatible."""

    def __init__(self, session: "Session", data: dict) -> None:
        self._session = session
        self.data = data

    def __getitem__(self, item):
        return self.data[item]

    def get(self, item, default=None):
        return self.data.get(item, default)

    @property
    def id(self) -> str:
        return self.data["id"]

    @property
    def status(self) -> str:
        return self.data["status"]

    @property
    def label(self) -> str:
        return self.data.get("label", "")

    @property
    def metrics(self) -> dict | None:
        return self.data.get("metrics")

    @property
    def spec(self) -> dict | None:
        """Full spec dict; fetched on demand (listings omit specs)."""
        if "spec" not in self.data:
            self.refresh()
        return self.data.get("spec")

    def refresh(self) -> "Job":
        self.data = self._session._transport.request(
            "GET", f"/api/jobs/{self.id}"
        )
        return self

    def __repr__(self) -> str:
        return f"Job({self.id!r}, {self.status!r}, {self.label!r})"


class JobCollection:
    """Lazy, chainable query over jobs.

    ``filter`` accepts keyword equality (``status="ok"``, dotted paths
    like ``**{"metrics.completed": True}`` via a dict) and positional
    callables taking the raw job dict.  Each ``filter`` returns a new
    collection; nothing hits the wire until you iterate / ``all()`` /
    ``first()`` / ``len()``.
    """

    def __init__(
        self,
        session: "Session",
        *,
        campaign_id: str | None = None,
        params: dict | None = None,
        predicates: tuple[Callable[[dict], bool], ...] = (),
    ) -> None:
        self._session = session
        self._campaign_id = campaign_id
        self._params = dict(params or {})
        self._predicates = predicates

    def filter(self, *callables, **equals) -> "JobCollection":
        params = dict(self._params)
        predicates = list(self._predicates)
        for fn in callables:
            if not callable(fn):
                raise TypeError(
                    f"positional filters must be callables, got {fn!r}"
                )
            predicates.append(fn)
        for field, wanted in equals.items():
            if field in _SERVER_FILTERS and field not in params:
                params[field] = wanted
            else:
                predicates.append(
                    lambda job, f=field, w=wanted: _lookup(job, f) == w
                )
        return JobCollection(
            self._session,
            campaign_id=self._campaign_id,
            params=params,
            predicates=tuple(predicates),
        )

    def _fetch(self) -> list[dict]:
        if self._campaign_id is not None:
            path = f"/api/campaigns/{self._campaign_id}/jobs"
        else:
            path = "/api/jobs"
        rows = self._session._transport.request(
            "GET", path, params=self._params
        )["jobs"]
        return [
            row for row in rows
            if all(pred(row) for pred in self._predicates)
        ]

    def __iter__(self) -> Iterator[Job]:
        return (Job(self._session, row) for row in self._fetch())

    def all(self) -> list[Job]:
        return list(self)

    def first(self) -> Job | None:
        rows = self._fetch()
        return Job(self._session, rows[0]) if rows else None

    def count(self) -> int:
        return len(self._fetch())

    def __len__(self) -> int:
        return self.count()

    def resubmit(self, *, name: str | None = None,
                 priority: int = 0) -> "Campaign":
        """Submit the matching jobs' specs as a fresh campaign.

        Completed specs resolve instantly from the result-store cache,
        so ``camp.jobs.filter(status="failed").resubmit()`` re-runs
        exactly the failures.
        """
        jobs = self.all()
        if not jobs:
            raise ValueError("no jobs match this collection; nothing to "
                             "resubmit")
        specs = [job.spec for job in jobs]
        return self._session.submit_specs(
            specs,
            name=name or f"resubmit-{len(specs)}",
            priority=priority,
        )

    # The ISSUE-style spelling: submitting a filtered collection *is*
    # a resubmission of its specs.
    submit = resubmit


class Campaign:
    """A submitted campaign element: status, jobs, stream, cancel."""

    def __init__(self, session: "Session", data: dict) -> None:
        self._session = session
        self.data = data

    @property
    def id(self) -> str:
        return self.data["id"]

    @property
    def name(self) -> str:
        return self.data["name"]

    @property
    def status(self) -> str:
        return self.data["status"]

    @property
    def counts(self) -> dict:
        return self.data.get("counts", {})

    @property
    def done(self) -> bool:
        return self.status in ("done", "failed", "cancelled")

    @property
    def jobs(self) -> JobCollection:
        return JobCollection(self._session, campaign_id=self.id)

    def refresh(self) -> "Campaign":
        self.data = self._session._transport.request(
            "GET", f"/api/campaigns/{self.id}"
        )
        return self

    def stream(self, *, reconnect: bool | None = None) -> Iterator[JobEvent]:
        """Live completion events as they happen, ending with ``end``.

        Self-healing by default: if the stream dies before its terminal
        event (server restart, dropped connection, idle timeout), the
        client reconnects with ``?since=<next seq>`` -- the server
        replays from exactly that cursor, so each job event is yielded
        **exactly once** even across a `serve --resume` restart
        mid-campaign.  ``reconnect=False`` restores single-shot
        behaviour (errors propagate).
        """
        session = self._session
        if reconnect is None:
            reconnect = session.reconnect
        since = 0
        delays = None  # fresh backoff schedule per outage
        while True:
            try:
                for line in session._transport.stream(
                    f"/api/campaigns/{self.id}/stream",
                    params={"since": since} if since else None,
                ):
                    event = JobEvent.from_dict(line)
                    if event.seq is not None:
                        since = event.seq + 1
                    delays = None  # stream is healthy again
                    yield event
                    if event.terminal:
                        return
                # EOF with no terminal event: the server went away
                # mid-stream (crash/restart); treat as reconnectable.
                last: Exception = StreamInterrupted(
                    "stream ended before the campaign finished"
                )
            except RETRYABLE_ERRORS as exc:
                last = exc
            if not reconnect:
                raise last
            if delays is None:
                delays = backoff_delays(
                    session.reconnect_attempts,
                    base=session.reconnect_backoff_s,
                )
            delay = next(delays, None)
            if delay is None:
                raise last
            time.sleep(delay)

    def wait(self, timeout: float | None = None) -> "Campaign":
        """Block until the campaign finishes (stream-driven, no polling).

        Rides the self-healing :meth:`stream`, so it survives server
        restarts mid-campaign.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for event in self.stream():
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"campaign {self.id} still {self.status!r} after "
                    f"{timeout:g}s"
                )
            if event.terminal:
                _finish(self.data, event)
                break
        return self

    def results(self) -> list[dict]:
        """Every job record (spec + metrics), one dict per job."""
        return list(self._session._transport.stream(
            f"/api/campaigns/{self.id}/results"
        ))

    def cancel(self) -> dict:
        out = self._session._transport.request(
            "POST", f"/api/campaigns/{self.id}/cancel"
        )
        self.refresh()
        return out

    def __repr__(self) -> str:
        return f"Campaign({self.id!r}, {self.name!r}, {self.status!r})"


class CampaignBuilder:
    """Fluent campaign construction; ``submit()`` posts the document."""

    def __init__(self, session: "Session", name: str) -> None:
        self._session = session
        self._doc: dict = {"name": name}
        self._priority = 0
        self._tenant: str | None = None

    def defaults(self, **fields) -> "CampaignBuilder":
        """Merge fields into the document's ``defaults`` block."""
        self._doc.setdefault("defaults", {}).update(fields)
        return self

    def grid(self, paths: dict | None = None, **kw) -> "CampaignBuilder":
        """Cartesian sweep axes; dotted paths via a dict, plain via kw."""
        grid = self._doc.setdefault("grid", {})
        grid.update(paths or {})
        grid.update(kw)
        return self

    def job(self, **entry) -> "CampaignBuilder":
        """Append one explicit job entry (merged over defaults)."""
        self._doc.setdefault("jobs", []).append(entry)
        return self

    def priority(self, priority: int) -> "CampaignBuilder":
        self._priority = int(priority)
        return self

    def tenant(self, tenant: str) -> "CampaignBuilder":
        self._tenant = tenant
        return self

    def document(self) -> dict:
        """The campaign document this builder would submit."""
        return dict(self._doc)

    def submit(self) -> Campaign:
        return self._session.submit_campaign(
            self.document(),
            tenant=self._tenant,
            priority=self._priority,
        )


class Session:
    """Blocking entry point to one job server.

    Resilience knobs: ``retries``/``backoff_s`` govern the transport's
    automatic retry of idempotent requests; ``reconnect`` /
    ``reconnect_attempts`` / ``reconnect_backoff_s`` govern stream
    auto-reconnect (``camp.stream()`` / ``camp.wait()`` surviving a
    server restart mid-campaign); ``idle_timeout`` bounds how long a
    silent stream read may block before reconnecting.
    """

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8642",
        *,
        tenant: str | None = None,
        timeout: float = 300.0,
        idle_timeout: float = 60.0,
        retries: int = 4,
        backoff_s: float = 0.25,
        reconnect: bool = True,
        reconnect_attempts: int = 8,
        reconnect_backoff_s: float = 0.25,
    ) -> None:
        self._transport = HttpTransport(
            base_url, tenant=tenant, timeout=timeout,
            idle_timeout=idle_timeout, retries=retries,
            backoff_base=backoff_s,
        )
        self.reconnect = reconnect
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_backoff_s = reconnect_backoff_s

    # -- service-level --------------------------------------------------

    def health(self) -> dict:
        return self._transport.request("GET", "/health")

    def store_stats(self) -> dict:
        return self._transport.request("GET", "/api/store")

    # -- campaigns ------------------------------------------------------

    def campaign(self, name: str) -> CampaignBuilder:
        """Start building a new campaign (fluent)."""
        return CampaignBuilder(self, name)

    def get_campaign(self, ident: str) -> Campaign:
        """Fetch an existing campaign by id or name."""
        return Campaign(
            self, self._transport.request("GET", f"/api/campaigns/{ident}")
        )

    def campaigns(self) -> list[Campaign]:
        rows = self._transport.request("GET", "/api/campaigns")["campaigns"]
        return [Campaign(self, row) for row in rows]

    def submit_campaign(
        self,
        document: dict,
        *,
        tenant: str | None = None,
        priority: int = 0,
    ) -> Campaign:
        """Submit a campaign document (the ``repro batch`` file schema)."""
        body = {"document": document, "priority": priority}
        if tenant:
            body["tenant"] = tenant
        return Campaign(
            self, self._transport.request("POST", "/api/campaigns",
                                          body=body)
        )

    def submit_specs(
        self,
        specs,
        *,
        name: str = "specs",
        tenant: str | None = None,
        priority: int = 0,
    ) -> Campaign:
        """Submit explicit specs (JobSpec objects or spec dicts)."""
        dicts = [
            spec.to_dict() if hasattr(spec, "to_dict") else spec
            for spec in specs
        ]
        body = {"specs": dicts, "name": name, "priority": priority}
        if tenant:
            body["tenant"] = tenant
        return Campaign(
            self, self._transport.request("POST", "/api/campaigns",
                                          body=body)
        )

    # -- jobs -----------------------------------------------------------

    @property
    def jobs(self) -> JobCollection:
        """Query jobs across every campaign on the server."""
        return JobCollection(self)

    def get_job(self, job_id: str) -> Job:
        return Job(self, self._transport.request(
            "GET", f"/api/jobs/{job_id}"
        ))

    def close(self) -> None:
        """Close the kept connections; the next request dials afresh."""
        self._transport.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

