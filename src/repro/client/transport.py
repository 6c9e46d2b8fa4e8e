"""The HTTP transport for the fluent client.

It speaks the job server's dialect (:mod:`repro.service.server`): JSON
request/response bodies framed by ``Content-Length``, and JSONL streams
framed by connection close.  It rides stdlib ``http.client`` and keeps
its JSON connections up between requests (a stream always gets a
connection of its own, since reading it to the end closes it).
Everything above this module (sessions, elements, collections) is
transport-agnostic.

Failure taxonomy (what the retry/reconnect layers classify on):

* :class:`ServiceError` -- the server *answered* with an error status.
  Never retried: the request reached a live server and was rejected.
* :class:`TransportError` -- the connection failed before a valid
  response (refused, reset, closed pre-status-line, malformed head).
  Retryable for idempotent requests; the transport retries
  GETs itself with capped exponential backoff + jitter.
* :class:`StreamInterrupted` -- a live JSONL stream died mid-flight
  (connection drop, idle-read timeout).  The session layer reconnects
  with its ``?since=`` cursor and resumes exactly where it stopped.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import socket
import time
import urllib.parse
from typing import Iterator


class ServiceError(RuntimeError):
    """The server answered with an error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class TransportError(ServiceError):
    """Connection-level failure before a valid HTTP response.

    Raised in place of the opaque ``IndexError``/``ValueError`` soup
    you get parsing a status line the server never wrote (crash or
    restart mid-request).  ``status == 0`` marks "no response at all",
    which is what makes it safely retryable for idempotent requests.
    """

    def __init__(self, message: str) -> None:
        super().__init__(0, message)


class StreamInterrupted(TransportError):
    """A JSONL stream died before its terminal event (reconnectable)."""


# Everything that means "the server never answered this request":
# refused/reset/closed connections, OS-level socket errors, and our own
# pre-response classification.  Idempotent requests retry on these.
RETRYABLE_ERRORS = (ConnectionError, TimeoutError, OSError, TransportError)


def backoff_delays(
    attempts: int,
    *,
    base: float = 0.25,
    cap: float = 5.0,
    rng: random.Random | None = None,
) -> Iterator[float]:
    """Capped exponential backoff with full jitter, ``attempts`` long."""
    rng = rng if rng is not None else random
    for n in range(attempts):
        yield min(cap, base * (2 ** n)) * (0.5 + rng.random() / 2)


def _split_url(base_url: str) -> tuple[str, int]:
    parsed = urllib.parse.urlsplit(base_url)
    if parsed.scheme not in ("http", ""):
        raise ValueError(f"only http:// service URLs are supported, "
                         f"got {base_url!r}")
    host = parsed.hostname or "127.0.0.1"
    return host, parsed.port or 80


def _qs(params: dict | None) -> str:
    if not params:
        return ""
    clean = {k: v for k, v in params.items() if v is not None}
    return "?" + urllib.parse.urlencode(clean) if clean else ""


def _hung_up(sock: socket.socket) -> bool:
    """An idle connection that is readable has nothing good to say: the
    peer closed it (EOF), reset it, or wrote out of turn."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class HttpTransport:
    """Blocking transport over kept-alive ``http.client`` connections.

    A request takes a connection from the idle list, or dials one, and
    hands it back once the response has been read in full.  The list is
    only ever touched by ``pop()`` and ``append()``, each atomic, so
    threads sharing a transport never hold the same connection.  An
    idle connection the server has since closed (restart, idle timeout)
    is detected *before* anything is sent on it and replaced by a fresh
    one, so reuse never costs a request.  :meth:`close` drops the idle
    connections.

    ``retries``/``backoff_base``/``backoff_cap`` govern the automatic
    retry of *idempotent* (GET) requests on transport-level failures --
    a server restarting under a campaign looks like a few refused
    connections, not an error.  POSTs are never retried automatically:
    submission is cheap to re-issue deliberately but not provably
    idempotent at the envelope level (a retry could register a
    duplicate campaign).
    """

    def __init__(self, base_url: str, *, tenant: str | None = None,
                 timeout: float = 300.0, idle_timeout: float = 60.0,
                 retries: int = 4, backoff_base: float = 0.25,
                 backoff_cap: float = 5.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.host, self.port = _split_url(self.base_url)
        self.tenant = tenant
        self.timeout = timeout
        self.idle_timeout = idle_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._idle: list[http.client.HTTPConnection] = []

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _checkout(self) -> http.client.HTTPConnection:
        """A kept connection the server has not hung up on, else a new one."""
        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                return self._connect()
            if not _hung_up(conn.sock):
                return conn
            conn.close()

    def close(self) -> None:
        """Close the idle connections; the transport stays usable."""
        idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _headers(self) -> dict:
        headers = {"Accept": "application/json"}
        if self.tenant:
            headers["X-Repro-Tenant"] = self.tenant
        return headers

    def request(
        self,
        method: str,
        path: str,
        *,
        body: dict | None = None,
        params: dict | None = None,
    ) -> dict:
        idempotent = method.upper() in ("GET", "HEAD")
        delays = backoff_delays(
            self.retries if idempotent else 0,
            base=self.backoff_base, cap=self.backoff_cap,
        )
        while True:
            try:
                return self._request_once(method, path, body, params)
            except http.client.HTTPException as exc:
                # Malformed / absent response head (server died mid-
                # reply): classify cleanly, then fall through to retry.
                exc = TransportError(f"{type(exc).__name__}: {exc}")
                delay = next(delays, None)
                if delay is None:
                    raise exc from None
            except RETRYABLE_ERRORS as exc:
                delay = next(delays, None)
                if delay is None:
                    raise
            time.sleep(delay)

    def _request_once(self, method, path, body, params) -> dict:
        payload = json.dumps(body).encode() if body is not None else None
        headers = self._headers()
        if payload is not None:
            headers["Content-Type"] = "application/json"
        conn = self._checkout()
        try:
            conn.request(method, path + _qs(params), body=payload,
                         headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        # http.client has already closed a connection whose response
        # said ``Connection: close``; any other is good for another.
        if conn.sock is not None:
            self._idle.append(conn)
        parsed = json.loads(data) if data else {}
        if resp.status >= 400:
            raise ServiceError(
                resp.status, parsed.get("error", data.decode()[:200])
            )
        return parsed

    def stream(
        self, path: str, *, params: dict | None = None
    ) -> Iterator[dict]:
        """Yield JSONL objects as the server writes them, until EOF.

        The per-request ``timeout`` only governs connect + response
        head; once the stream is live, reads run under ``idle_timeout``
        instead, and a quiet-too-long (or dropped) stream surfaces as
        :class:`StreamInterrupted` -- a reconnectable condition for the
        session's auto-reconnect -- never a raw ``socket.timeout``.
        """
        conn = self._connect()
        resp = None
        try:
            try:
                conn.request("GET", path + _qs(params),
                             headers=self._headers())
                # Grab the socket *before* getresponse(): close-framed
                # responses hand it to the response object and null out
                # conn.sock, but it is the same socket underneath and
                # settimeout() on it governs the stream reads below.
                sock = conn.sock
                resp = conn.getresponse()
            except http.client.HTTPException as exc:
                raise TransportError(f"{type(exc).__name__}: {exc}") from None
            if resp.status >= 400:
                data = resp.read()
                try:
                    message = json.loads(data).get("error", "")
                except json.JSONDecodeError:
                    message = data.decode()[:200]
                raise ServiceError(resp.status, message)
            if sock is not None and self.idle_timeout is not None:
                sock.settimeout(self.idle_timeout)
            while True:
                try:
                    line = resp.readline()
                except socket.timeout:
                    raise StreamInterrupted(
                        f"no stream data for {self.idle_timeout:g}s"
                    ) from None
                except (ConnectionError, OSError) as exc:
                    raise StreamInterrupted(
                        f"stream connection lost: {exc}"
                    ) from None
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            if resp is not None:
                resp.close()  # a close-framed response owns the socket
            conn.close()

