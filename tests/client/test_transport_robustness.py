"""Client transport failure handling against scripted fake servers.

Each fake is a real listening socket driven by a thread, scripted to
misbehave in one specific way (close before the status line, go silent
mid-stream, refuse the first N connections...).  The assertions pin the
failure taxonomy: clean classifiable errors, automatic retry of
idempotent requests, and exactly-once resumption via ``?since=``.
"""

import json
import re
import socket
import threading
import time

import pytest

from repro.client import (
    ServiceError,
    Session,
    StreamInterrupted,
    TransportError,
)
from repro.client.transport import HttpTransport, backoff_delays


class ScriptedServer:
    """A one-thread TCP server running a handler per connection."""

    def __init__(self, handler):
        self.handler = handler
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self.connections = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        self.sock.settimeout(0.1)
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            try:
                self.handler(conn, self.connections)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)
        self.sock.close()


def read_request(conn) -> bytes:
    conn.settimeout(5)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            break
        data += chunk
    return data


def http_response(body: dict, status: int = 200) -> bytes:
    payload = json.dumps(body).encode()
    return (
        f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    ).encode() + payload


def kept_response(body: dict, status: int = 200) -> bytes:
    """A response that leaves the connection up (no ``Connection: close``)."""
    payload = json.dumps(body).encode()
    return (
        f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode() + payload


def request_line(request: bytes) -> str:
    return request.split(b"\r\n", 1)[0].decode()


@pytest.fixture
def scripted():
    servers = []

    def make(handler) -> ScriptedServer:
        server = ScriptedServer(handler)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


class TestPrematureClose:
    def test_blocking_close_before_status_line_is_transport_error(
        self, scripted
    ):
        server = scripted(lambda conn, n: read_request(conn))
        transport = HttpTransport(server.url, retries=0)
        with pytest.raises(TransportError):
            transport.request("GET", "/health")

    def test_blocking_garbled_status_line_is_transport_error(self, scripted):
        def handler(conn, n):
            read_request(conn)
            conn.sendall(b"garbage that is not HTTP\r\n\r\n")

        server = scripted(handler)
        transport = HttpTransport(server.url, retries=0)
        with pytest.raises(TransportError) as err:
            transport.request("GET", "/health")
        assert err.value.status == 0  # no response at all: retryable
        assert "BadStatusLine" in str(err.value)
        assert server.connections == 1


class TestIdempotentRetry:
    def test_get_retries_through_transient_deaths(self, scripted):
        """First two connections die pre-response; the third answers."""

        def handler(conn, n):
            read_request(conn)
            if n < 3:
                return  # close without responding
            conn.sendall(http_response({"status": "ok"}))

        server = scripted(handler)
        transport = HttpTransport(
            server.url, retries=4, backoff_base=0.01
        )
        assert transport.request("GET", "/health") == {"status": "ok"}
        assert server.connections == 3

    def test_post_is_never_auto_retried(self, scripted):
        def handler(conn, n):
            # Always die pre-response -- but take the body first: closing
            # on unread bytes is a reset, which the client may meet while
            # still sending and report as a raw ConnectionResetError.
            head, _, body = read_request(conn).partition(b"\r\n\r\n")
            length = int(re.search(rb"content-length: (\d+)",
                                   head.lower()).group(1))
            while len(body) < length:
                body += conn.recv(4096)

        server = scripted(handler)
        transport = HttpTransport(
            server.url, retries=4, backoff_base=0.01
        )
        with pytest.raises(TransportError):
            transport.request("POST", "/api/campaigns", body={"x": 1})
        assert server.connections == 1  # exactly one attempt

    def test_retry_budget_exhaustion_raises_last_error(self, scripted):
        server = scripted(lambda conn, n: read_request(conn))
        transport = HttpTransport(
            server.url, retries=2, backoff_base=0.01
        )
        with pytest.raises(TransportError):
            transport.request("GET", "/health")
        assert server.connections == 3  # 1 try + 2 retries

    def test_server_4xx_is_never_retried(self, scripted):
        def handler(conn, n):
            read_request(conn)
            conn.sendall(http_response({"error": "nope"}, status=404))

        server = scripted(handler)
        transport = HttpTransport(
            server.url, retries=4, backoff_base=0.01
        )
        with pytest.raises(Exception) as err:
            transport.request("GET", "/api/campaigns/ghost")
        assert not isinstance(err.value, TransportError)
        assert server.connections == 1


class TestKeptConnections:
    def test_sequential_requests_share_one_connection(self, scripted):
        def handler(conn, n):
            while request := read_request(conn):
                conn.sendall(kept_response({"saw": request_line(request)}))

        server = scripted(handler)
        transport = HttpTransport(server.url)
        for i in range(20):
            reply = transport.request("GET", f"/api/jobs/j-{i}")
            assert reply == {"saw": f"GET /api/jobs/j-{i} HTTP/1.1"}
        assert server.connections == 1
        transport.close()

    def test_error_status_keeps_the_connection(self, scripted):
        def handler(conn, n):
            while read_request(conn):
                conn.sendall(kept_response({"error": "nope"}, status=404))

        server = scripted(handler)
        transport = HttpTransport(server.url)
        for _ in range(3):
            with pytest.raises(ServiceError) as err:
                transport.request("GET", "/api/campaigns/ghost")
            assert err.value.status == 404
        assert server.connections == 1
        transport.close()

    def test_connection_close_reply_is_redialled_transparently(
        self, scripted
    ):
        """An older server (and every fake above) answers one request
        per connection; the client must simply dial again."""

        def handler(conn, n):
            read_request(conn)
            conn.sendall(http_response({"n": n}))

        server = scripted(handler)
        transport = HttpTransport(server.url, retries=0)
        assert [
            transport.request("GET", "/health")["n"] for _ in range(3)
        ] == [1, 2, 3]
        assert server.connections == 3

    def test_dead_idle_connection_never_costs_a_post(self, scripted):
        """The server hangs up on the kept connection (a restart, an
        idle timeout).  The next request is a POST, which is never
        resent: the client must notice *before* sending anything."""
        closed = threading.Event()
        posts = []

        def handler(conn, n):
            request = read_request(conn)
            if n == 1:
                conn.sendall(kept_response({"n": n}))
                conn.close()
                closed.set()
                return
            posts.append(request_line(request))
            conn.sendall(kept_response({"n": n}))
            read_request(conn)  # until the client closes

        server = scripted(handler)
        transport = HttpTransport(server.url, retries=0)
        assert transport.request("GET", "/health") == {"n": 1}
        assert closed.wait(5)
        assert transport.request(
            "POST", "/api/campaigns", body={"x": 1}
        ) == {"n": 2}
        assert posts == ["POST /api/campaigns HTTP/1.1"]
        assert server.connections == 2
        transport.close()

    def test_session_close_drops_kept_connections(self, scripted):
        hung_up = threading.Event()

        def handler(conn, n):
            while read_request(conn):
                conn.sendall(kept_response({"status": "ok"}))
            hung_up.set()

        server = scripted(handler)
        with Session(server.url) as session:
            session.health()
            session.health()
            assert not hung_up.is_set()
        assert hung_up.wait(5)
        assert server.connections == 1
        # Closed is not broken: the next request dials afresh.
        assert session.health() == {"status": "ok"}
        session.close()
        assert server.connections == 2


class TestStreamInterruption:
    def test_idle_stream_times_out_as_stream_interrupted(self, scripted):
        def handler(conn, n):
            read_request(conn)
            conn.sendall(b"HTTP/1.1 200 X\r\nConnection: close\r\n\r\n")
            conn.sendall(b'{"event": "job", "seq": 0}\n')
            time.sleep(3)  # silent well past the idle timeout

        server = scripted(handler)
        transport = HttpTransport(server.url, idle_timeout=0.2)
        events = []
        with pytest.raises(StreamInterrupted) as err:
            for event in transport.stream("/api/x/stream"):
                events.append(event)
        assert events == [{"event": "job", "seq": 0}]
        assert "no stream data" in str(err.value)

    def test_mid_stream_death_is_stream_interrupted_not_raw(self, scripted):
        def handler(conn, n):
            read_request(conn)
            conn.sendall(b"HTTP/1.1 200 X\r\nConnection: close\r\n\r\n")
            conn.sendall(b'{"event": "job", "seq": 0}\n')
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",  # RST on close
            )

        server = scripted(handler)
        transport = HttpTransport(server.url, idle_timeout=5)
        events = []
        with pytest.raises(StreamInterrupted):
            for event in transport.stream("/api/x/stream"):
                events.append(event)
        assert events == [{"event": "job", "seq": 0}]


class TestSessionReconnect:
    def _event(self, seq, status="ok"):
        return {
            "event": "job", "seq": seq, "id": f"j-{seq}",
            "status": status,
        }

    def test_stream_resumes_with_since_cursor_exactly_once(self, scripted):
        """Server dies after 2 events; the client must reconnect asking
        for ?since=2 and never see a duplicate."""
        seen_paths = []

        def handler(conn, n):
            request = read_request(conn)
            seen_paths.append(request.split(b" ")[1].decode())
            conn.sendall(b"HTTP/1.1 200 X\r\nConnection: close\r\n\r\n")
            if n == 1:
                conn.sendall(json.dumps(self._event(0)).encode() + b"\n")
                conn.sendall(json.dumps(self._event(1)).encode() + b"\n")
                # die mid-stream, no terminal event
            else:
                conn.sendall(json.dumps(self._event(2)).encode() + b"\n")
                conn.sendall(
                    b'{"event": "end", "status": "done", "counts": {}}\n'
                )

        server = scripted(handler)
        session = Session(server.url, reconnect_backoff_s=0.01)
        # Build the Campaign element directly (no real GET needed):
        # stream() is the unit under test.
        from repro.client.session import Campaign

        events = list(
            Campaign(session, {"id": "c-1", "name": "x"}).stream()
        )
        seqs = [e.seq for e in events if e.event == "job"]
        assert seqs == [0, 1, 2]  # exactly once, in order
        assert events[-1].terminal
        assert seen_paths[0] == "/api/campaigns/c-1/stream"
        assert seen_paths[1] == "/api/campaigns/c-1/stream?since=2"

    def test_reconnect_false_propagates_interruption(self, scripted):
        def handler(conn, n):
            read_request(conn)
            conn.sendall(b"HTTP/1.1 200 X\r\nConnection: close\r\n\r\n")
            conn.sendall(json.dumps(self._event(0)).encode() + b"\n")

        server = scripted(handler)
        session = Session(server.url)
        from repro.client.session import Campaign

        with pytest.raises(StreamInterrupted):
            list(
                Campaign(session, {"id": "c-1", "name": "x"})
                .stream(reconnect=False)
            )

    def test_reconnect_budget_exhaustion_raises(self, scripted):
        def handler(conn, n):
            read_request(conn)
            conn.sendall(b"HTTP/1.1 200 X\r\nConnection: close\r\n\r\n")
            # Never any events, never a terminal: hopeless server.

        server = scripted(handler)
        session = Session(
            server.url, reconnect_attempts=2, reconnect_backoff_s=0.01
        )
        from repro.client.session import Campaign

        with pytest.raises(StreamInterrupted):
            list(Campaign(session, {"id": "c-1", "name": "x"}).stream())
        assert server.connections == 3  # 1 try + 2 reconnects


class TestBackoff:
    def test_delays_are_capped_and_jittered(self):
        import random

        delays = list(
            backoff_delays(8, base=0.25, cap=2.0, rng=random.Random(7))
        )
        assert len(delays) == 8
        # Jitter keeps every delay within [0.5x, 1x] of the raw value.
        raw = [min(2.0, 0.25 * 2 ** n) for n in range(8)]
        for delay, ceiling in zip(delays, raw):
            assert 0.5 * ceiling <= delay <= ceiling
        assert max(delays) <= 2.0

    def test_zero_attempts_yields_nothing(self):
        assert list(backoff_delays(0)) == []
