"""What one served job may cost, as counts (they repeat exactly; no timer).

Through a live server, N sequential submit+wait trips by one client
cost exactly 2N transport calls (a POST and a stream; no refresh), at
most N+1 accepted connections (one kept for the POSTs, one per stream)
and exactly 2N sqlite commits (the shard and the index).  A change that
adds a round trip, a connection or a commit per job fails here before
any benchmark runs.  Next to ``test_hit_path_budget.py``, which pins
the cache-hit path the same way.
"""

import functools
import sqlite3

from repro.client import Session
from repro.service.server import JobServer, ServiceConfig, ServiceThread

from .test_server import tiny_spec

TRIPS = 6


def test_sequential_trips_stay_within_budget(tmp_path, monkeypatch):
    statements: list[str] = []

    class Traced(sqlite3.Connection):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.set_trace_callback(statements.append)

    monkeypatch.setattr(
        sqlite3, "connect", functools.partial(sqlite3.connect, factory=Traced)
    )

    accepted = []
    handle = JobServer._handle_connection

    async def counting(self, reader, writer):
        accepted.append(writer)
        await handle(self, reader, writer)

    monkeypatch.setattr(JobServer, "_handle_connection", counting)

    config = ServiceConfig(
        port=0, store=f"sqlite:{tmp_path / 'store'}", workers=1,
        executor="thread",
    )
    with ServiceThread(config) as url, Session(url) as session:
        calls = []
        transport = session._transport
        for name in ("request", "stream"):
            real = getattr(transport, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            setattr(transport, name, counted)

        def trip(i: int):
            campaign = session.submit_specs(
                [tiny_spec(seed=i)], name="trip"
            ).wait(timeout=60)
            assert campaign.status == "done" and campaign.counts["ok"] == 1

        def commits() -> int:
            return sum(1 for s in statements if s.upper() == "COMMIT")

        trip(0)  # databases created, shard open, connection dialled
        before = (len(calls), len(accepted), commits())
        for i in range(1, TRIPS + 1):
            trip(i)
        spent = (len(calls) - before[0], len(accepted) - before[1],
                 commits() - before[2])

    assert calls == ["request", "stream"] * (TRIPS + 1)
    assert spent == (2 * TRIPS, TRIPS, 2 * TRIPS)
    # Including the first trip: the kept connection, then one per stream.
    assert len(accepted) <= (TRIPS + 1) + 1
