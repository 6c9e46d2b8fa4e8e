"""Persistent connections, seen from both ends of a live server.

The server keeps a connection up after a JSON response and ends it
after a JSONL one; the client parks its connections between requests.
The raw-socket half speaks HTTP by hand so that what is asserted is the
bytes on the wire, not what ``http.client`` makes of them.
"""

import dataclasses
import json
import logging
import socket
import sys
import threading
import time

import pytest

from repro.client import Session
from repro.service import server as server_module
from repro.service.server import ServiceConfig, ServiceThread

from .test_server import tiny_spec


def config_for(tmp_path, **kwargs) -> ServiceConfig:
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 2)
    return ServiceConfig(
        store=f"sqlite:{tmp_path / 'store'}", executor="thread", **kwargs
    )


@pytest.fixture
def live(tmp_path):
    thread = ServiceThread(config_for(tmp_path))
    thread.start()
    yield thread
    thread.stop()


class Wire:
    """One raw client connection to a live server."""

    def __init__(self, thread: ServiceThread) -> None:
        self.sock = socket.create_connection(
            (thread.server.config.host, thread.server.port), timeout=10
        )
        self.buffer = b""

    def send(self, text: str) -> None:
        self.sock.sendall(text.encode("latin-1"))

    def get(self, path: str, *, version: str = "HTTP/1.1",
            headers: str = "") -> None:
        self.send(f"GET {path} {version}\r\nHost: x\r\n{headers}\r\n")

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        self.buffer += chunk
        return bool(chunk)

    def response(self) -> tuple[int, dict, bytes]:
        """The next response; a body without a length runs to EOF."""
        while b"\r\n\r\n" not in self.buffer:
            assert self._fill(), f"EOF inside a head: {self.buffer!r}"
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "content-length" in headers:
            length = int(headers["content-length"])
            while len(self.buffer) < length:
                assert self._fill(), "EOF inside a body"
            body, self.buffer = self.buffer[:length], self.buffer[length:]
        else:
            while self._fill():
                pass
            body, self.buffer = self.buffer, b""
        return status, headers, body

    def at_eof(self) -> bool:
        """True when the server has closed and sent nothing more."""
        try:
            return self.buffer == b"" and self.sock.recv(1) == b""
        except ConnectionResetError:
            return True

    def close(self) -> None:
        self.sock.close()


@pytest.fixture
def wire(live):
    wires = []

    def make() -> Wire:
        wires.append(Wire(live))
        return wires[-1]

    yield make
    for w in wires:
        w.close()


class TestServerSide:
    def test_two_requests_back_to_back_get_two_responses(self, wire):
        w = wire()
        # Pipelined in one segment: the second is served from the buffer.
        w.send("GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
               "GET /api/store HTTP/1.1\r\nHost: x\r\n\r\n")
        status, headers, body = w.response()
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert "connection" not in headers
        status, headers, body = w.response()
        assert status == 200
        assert json.loads(body)["store"]["backend"] == "sqlite"
        # ... and the connection is still there for a third.
        w.get("/health")
        assert w.response()[0] == 200

    def test_post_bodies_are_framed_per_request(self, live, wire):
        w = wire()
        body = json.dumps({"specs": [tiny_spec().to_dict()], "name": "raw"})
        for _ in range(2):
            w.send(f"POST /api/campaigns HTTP/1.1\r\nHost: x\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n{body}")
            status, _, reply = w.response()
            assert status == 200 and json.loads(reply)["name"] == "raw"
        with Session(live.url) as session:
            assert len(session.campaigns()) == 2

    @pytest.mark.parametrize("version, headers", [
        ("HTTP/1.1", "Connection: close\r\n"),
        ("HTTP/1.1", "connection: Close\r\n"),
        ("HTTP/1.0", ""),
    ])
    def test_close_requests_close_after_one_response(
        self, wire, version, headers
    ):
        w = wire()
        w.get("/health", version=version, headers=headers)
        status, reply_headers, body = w.response()
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert reply_headers["connection"] == "close"
        assert w.at_eof()

    def test_jsonl_responses_close(self, live, wire):
        with Session(live.url) as session:
            campaign = session.submit_specs([tiny_spec()], name="s")
            campaign.wait(timeout=60)
        for route in ("stream", "results"):
            w = wire()
            w.get(f"/api/campaigns/{campaign.id}/{route}")
            status, headers, body = w.response()  # runs to EOF
            assert status == 200
            assert headers["connection"] == "close"
            assert "content-length" not in headers
            lines = [json.loads(line) for line in body.splitlines()]
            if route == "stream":
                assert lines[-1]["event"] == "end"
            else:
                assert [row["status"] for row in lines] == ["ok"]

    def test_error_status_keeps_the_connection_usable(self, wire):
        w = wire()
        w.get("/api/nope")
        status, headers, body = w.response()
        assert status == 404 and "no such route" in json.loads(body)["error"]
        assert "connection" not in headers
        w.send("DELETE /api/campaigns HTTP/1.1\r\nHost: x\r\n\r\n")
        assert w.response()[0] == 405
        w.get("/health")
        assert w.response()[0] == 200

    def test_malformed_second_request_gets_400_and_a_close(self, wire):
        w = wire()
        w.get("/health")
        assert w.response()[0] == 200
        w.send("NONSENSE\r\n\r\n")
        status, headers, body = w.response()
        assert status == 400
        assert "malformed request line" in json.loads(body)["error"]
        assert headers["connection"] == "close"
        assert w.at_eof()

    @pytest.mark.parametrize("length", ["banana", "-5"])
    def test_bad_content_length_gets_400_and_a_close(self, wire, length):
        w = wire()
        w.send(f"POST /api/campaigns HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {length}\r\n\r\n")
        status, headers, body = w.response()
        assert status == 400 and "Content-Length" in json.loads(body)["error"]
        assert headers["connection"] == "close"
        assert w.at_eof()

    def test_limits_apply_to_every_request_not_only_the_first(self, wire):
        w = wire()
        w.get("/health")
        assert w.response()[0] == 200
        w.send(f"POST /api/campaigns HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {server_module.MAX_BODY_BYTES + 1}\r\n\r\n")
        status, headers, _ = w.response()
        assert status == 413 and headers["connection"] == "close"
        assert w.at_eof()

        w = wire()
        w.get("/health")
        assert w.response()[0] == 200
        padding = "x" * (server_module.MAX_HEADER_BYTES + 1)
        try:
            w.get("/health", headers=f"X-Padding: {padding}\r\n")
        except ConnectionError:
            pass  # the server may answer and close before reading it all
        else:
            status, headers, _ = w.response()
            assert status == 413 and headers["connection"] == "close"
        assert w.at_eof()

    def test_a_client_leaving_between_requests_is_not_an_error(
        self, wire, caplog
    ):
        """EOF where a request could start: nothing is written to the
        dead socket and nothing is logged."""
        with caplog.at_level(logging.INFO):
            w = wire()
            w.sock.shutdown(socket.SHUT_WR)  # left without asking anything
            assert w.at_eof()                # parent: a 400 arrived here
            w = wire()
            w.get("/health")
            assert w.response()[0] == 200
            w.sock.shutdown(socket.SHUT_WR)
            assert w.at_eof()
        assert caplog.records == []

    def test_a_request_cut_short_is_still_a_400(self, wire):
        w = wire()
        w.send("GET /health HTTP/1.1\r\nHost:")
        w.sock.shutdown(socket.SHUT_WR)
        status, _, body = w.response()
        assert status == 400 and "truncated" in json.loads(body)["error"]

    def test_idle_connections_are_closed_after_the_bound(
        self, wire, monkeypatch
    ):
        monkeypatch.setattr(server_module, "IDLE_CONNECTION_S", 0.15)
        w = wire()
        start = time.monotonic()
        w.get("/health")
        assert w.response()[0] == 200
        assert w.at_eof()  # blocks until the server hangs up
        assert 0.1 <= time.monotonic() - start < 5


class TestStop:
    def test_stop_closes_parked_connections_and_returns(self, tmp_path):
        """From Python 3.12.1 ``Server.wait_closed()`` waits for every
        open connection: a parked client must not hold the drain."""
        thread = ServiceThread(config_for(tmp_path))
        thread.start()
        parked = [Wire(thread) for _ in range(3)]
        session = Session(thread.url)
        session.health()  # a fourth, parked in the client's idle list
        for w in parked:
            w.get("/health")
            assert w.response()[0] == 200
        start = time.monotonic()
        thread.stop()
        assert time.monotonic() - start < 10
        assert not thread._thread.is_alive()
        for w in parked:
            assert w.at_eof()
            w.close()
        session.close()

    def test_a_stalled_body_is_closed_at_the_deadline(
        self, tmp_path, monkeypatch, caplog
    ):
        """A head that declares a body the client never finishes sending
        gets the idle bound too, so stop() finds nothing to cancel."""
        monkeypatch.setattr(server_module, "IDLE_CONNECTION_S", 0.3)
        thread = ServiceThread(config_for(tmp_path))
        thread.start()
        with caplog.at_level(logging.INFO):
            w = Wire(thread)
            start = time.monotonic()
            w.send("POST /api/jobs HTTP/1.1\r\nHost: x\r\n"
                   "Content-Length: 100\r\n\r\n{\"sp")
            assert w.at_eof()  # blocks until the server hangs up
            assert 0.2 <= time.monotonic() - start < 5
            thread.stop()
        w.close()
        assert not thread._thread.is_alive()
        assert [r for r in caplog.records if r.exc_info] == []
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []


class TestClientSide:
    def test_restart_on_the_same_port_between_two_submissions(
        self, tmp_path
    ):
        """The session's kept connection dies with the first server; the
        second submission (a POST, never resent) must go to the new one
        exactly once."""
        first = ServiceThread(config_for(tmp_path))
        url = first.start()
        port = first.server.port
        session = Session(url)
        one = session.submit_specs([tiny_spec(0.05)], name="one")
        one.wait(timeout=60)
        first.stop()

        second = ServiceThread(config_for(tmp_path, port=port, resume=True))
        try:
            assert second.start() == url
            two = session.submit_specs([tiny_spec(0.1)], name="two")
            two.wait(timeout=60)
            assert two.status == "done" and two.counts["ok"] == 1
            names = sorted(c.name for c in session.campaigns())
            assert names == ["one", "two"]
            assert session.get_campaign(one.id).status == "done"
        finally:
            session.close()
            second.stop()

    def test_two_threads_share_a_session_without_mixups(self, live):
        session = Session(live.url)
        campaigns = [
            session.submit_specs([tiny_spec(load)], name=f"camp-{i}")
            for i, load in enumerate((0.05, 0.1))
        ]
        for campaign in campaigns:
            campaign.wait(timeout=60)
        mixups: list = []

        def hammer(campaign) -> None:
            for _ in range(50):
                got = session.get_campaign(campaign.id)
                if (got.id, got.name) != (campaign.id, campaign.name):
                    mixups.append((campaign.id, got.data))
                [job] = session.jobs.filter(
                    lambda row: row["campaign_id"] == campaign.id
                ).all()
                if job["campaign"] != campaign.name:
                    mixups.append((campaign.id, job.data))

        threads = [
            threading.Thread(target=hammer, args=(c,)) for c in campaigns
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mixups == []
        # Two threads never need more than two connections.
        assert len(session._transport._idle) <= 2
        session.close()


class TestWaitEndsOnTheEndEvent:
    """``wait()`` takes status and counts from the ``end`` event; what
    it leaves in ``data`` must be what a ``refresh()`` would fetch."""

    @pytest.fixture
    def outcomes(self, tmp_path, monkeypatch):
        """A live server holding one done, one failed and one cancelled
        campaign (all finished), as ``{status: campaign id}``."""
        real = server_module.execute_job

        def flaky(spec):
            if spec.label == "doomed":
                raise RuntimeError("injected failure")
            return real(spec)

        monkeypatch.setattr(server_module, "execute_job", flaky)
        # Two tokens, then none: the third campaign stays queued until
        # it is cancelled.
        thread = ServiceThread(config_for(
            tmp_path, workers=1, rate=0.000001, burst=2,
        ))
        url = thread.start()
        session = Session(url)
        doomed = dataclasses.replace(tiny_spec(0.1), label="doomed")
        ids = {}
        done = session.submit_specs([tiny_spec(0.05)], name="done")
        failed = session.submit_specs([doomed], name="failed")
        done.wait(timeout=60)
        failed.wait(timeout=60)
        stuck = session.submit_specs(
            [tiny_spec(0.2), tiny_spec(0.3)], name="cancelled"
        )
        assert stuck.cancel()["cancelled"] == 2
        for campaign in (done, failed, stuck):
            ids[campaign.name] = campaign.id
        session.close()
        yield url, ids
        thread.stop()

    @pytest.mark.parametrize("status", ["done", "failed", "cancelled"])
    def test_sync(self, outcomes, status):
        url, ids = outcomes
        with Session(url) as session:
            campaign = session.get_campaign(ids[status])
            campaign.data = dict(campaign.data, status="running", counts={})
            waited = dict(campaign.wait(timeout=60).data)
            assert waited == campaign.refresh().data
            assert waited["status"] == status
            assert sum(waited["counts"].values()) == waited["jobs"]
