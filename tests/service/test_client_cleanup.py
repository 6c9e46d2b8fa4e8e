"""Every client ``Session`` the CLI and the chaos harness open is closed.

An unclosed session leaves its kept-alive connection to the garbage
collector, which raises ``ResourceWarning`` under ``python -X dev``.
The chaos harness must also resolve a relative ``--workdir`` once: the
server it starts runs with ``cwd=workdir``.
"""

import json
import subprocess
from pathlib import Path

import pytest

from repro.cli import main
from repro.client import Session
from repro.service import chaos
from repro.service.server import ServiceConfig, ServiceThread

DOC = {
    "name": "doc",
    "defaults": {
        "dims": "4x4", "protocol": "wormhole",
        "workload": {"kind": "uniform", "load": 0.05,
                     "length": 8, "duration": 150},
        "max_cycles": 20_000,
    },
    "grid": {"seed": [0]},
}


@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(
        port=0, store=f"sqlite:{tmp_path / 'store'}",
        workers=1, executor="thread",
    )
    with ServiceThread(config) as url:
        yield url


@pytest.fixture
def sessions(monkeypatch):
    """Every Session opened during the test, and which were closed."""
    opened: list = []
    closed: list = []
    init, close = Session.__init__, Session.close

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    def tracking_close(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(Session, "__init__", tracking_init)
    monkeypatch.setattr(Session, "close", tracking_close)

    def all_closed() -> bool:
        return bool(opened) and all(
            any(s is c for c in closed) for s in opened
        )

    return all_closed


@pytest.mark.parametrize("follow", ["--follow", "--no-follow"])
def test_submit_closes_its_session(service, sessions, tmp_path, follow):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(DOC), encoding="utf-8")
    assert main(["submit", str(path), "--url", service, follow]) == 0
    assert sessions()


@pytest.mark.parametrize("extra", [[], ["--all-jobs"]])
def test_jobs_closes_its_session(service, sessions, extra):
    assert main(["jobs", "--url", service, *extra]) == 0
    assert sessions()


class _Running:
    def poll(self):
        return None


def test_wait_healthy_closes_its_session(service, sessions):
    srv = chaos.ServerProcess.__new__(chaos.ServerProcess)
    srv.url, srv.proc = service, _Running()
    srv.wait_healthy(timeout_s=10.0)
    assert sessions()


class _Launched(Exception):
    pass


def test_chaos_resolves_a_relative_workdir_once(
    tmp_path, monkeypatch, sessions
):
    launched = []

    def fake_popen(argv, **kwargs):
        launched.append((argv, kwargs["cwd"]))
        kwargs["stdout"].close()  # the server log nobody will write
        raise _Launched

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(subprocess, "Popen", fake_popen)
    with pytest.raises(_Launched):
        chaos.run_chaos_scenario(
            Path("rel") / "chaos", jobs=1, duration=100
        )
    [(argv, cwd)] = launched
    workdir = tmp_path.resolve() / "rel" / "chaos"
    assert Path(cwd) == workdir
    for flag, name in (("--store", "chaos-results.jsonl"),
                       ("--journal", "chaos-journal.jsonl")):
        # What the server, running in cwd, will open.
        assert Path(cwd, argv[argv.index(flag) + 1]) == workdir / name
    assert sessions()
