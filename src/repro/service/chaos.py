"""Scripted kill-and-resume chaos harness for the job service.

The network layer proves its delivery guarantee under injected link
faults (``repro chaos``); this module applies the same discipline to
the *orchestration* tier.  :func:`run_chaos_scenario` drives a real
``repro serve`` subprocess through a scripted crash schedule:

1. submit a campaign, then **SIGKILL the server mid-queue** (work
   accepted but mostly unexecuted);
2. restart with ``--resume``, wait for execution to begin, then
   **SIGKILL mid-execution** (jobs running, some possibly mid-record);
3. restart with ``--resume`` again and **SIGKILL one worker process
   mid-job** (exercising executor-rebuild + bounded re-admission);
4. let the campaign finish, then **SIGTERM** for a graceful drain.

Throughout, a single client streams completion events with the
``?since=`` reconnect cursor across every restart.  The scenario then
asserts the service-tier analogue of "delivered or reported, never
silent":

* every job resolves exactly once (no lost work, no duplicate events);
* the result store holds exactly one record per spec key (no double
  executions -- re-admitted work that already recorded resolves from
  cache);
* final metrics are bit-identical to a serial ``run_jobs`` of the same
  specs.

Used by ``repro chaos-serve`` (dev command + CI chaos smoke) and
``tests/integration/test_service_chaos.py``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.errors import ConfigError
from repro.observe.logbook import get_logger
from repro.orchestrate.campaign import parse_campaign
from repro.orchestrate.pool import run_jobs
from repro.orchestrate.store import ResultStore

logger = get_logger("service")


class ChaosFailure(AssertionError):
    """A chaos invariant did not hold."""


def chaos_campaign_doc(
    *, jobs: int = 8, duration: int = 10_000, load: float = 0.3
) -> dict:
    """A campaign sized so kills land mid-queue and mid-execution.

    The defaults give ~0.5-1s per job: long enough that SIGKILLs land
    while work is genuinely queued/running, short enough for CI.
    """
    return {
        "name": "chaos-serve",
        "defaults": {
            "topology": "mesh",
            "dims": "4x4",
            "max_cycles": 60_000,
            "workload": {"kind": "uniform", "load": load,
                         "length": 16, "duration": duration},
        },
        "grid": {"seed": list(range(jobs))},
    }


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def child_pids(pid: int) -> list[int]:
    """Direct children of a process (Linux /proc; no psutil in the image)."""
    kids: list[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        for task in task_dir.iterdir():
            children = task / "children"
            try:
                kids.extend(
                    int(c) for c in children.read_text().split()
                )
            except (OSError, ValueError):  # pragma: no cover
                continue
    except OSError:
        pass
    return sorted(set(kids))


class ServerProcess:
    """One ``repro serve`` subprocess the harness can kill and restart."""

    def __init__(self, *, port: int, store: Path, journal: Path,
                 workdir: Path, workers: int = 2, retries: int = 2,
                 resume: bool = False, log_name: str = "serve.log") -> None:
        self.port = port
        self.url = f"http://127.0.0.1:{port}"
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--store", str(store),
            "--journal", str(journal),
            "--workers", str(workers),
            "--retries", str(retries),
        ]
        if resume:
            argv.append("--resume")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        self._log = (workdir / log_name).open("ab")
        self.proc = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=workdir,
        )

    def wait_healthy(self, timeout_s: float = 30.0) -> None:
        from repro.client import Session

        deadline = time.monotonic() + timeout_s
        with Session(self.url, retries=0) as session:
            while time.monotonic() < deadline:
                if self.proc.poll() is not None:
                    raise ChaosFailure(
                        f"server exited with {self.proc.returncode} before "
                        f"becoming healthy"
                    )
                try:
                    session.health()
                    return
                except Exception:
                    time.sleep(0.05)
        raise ChaosFailure(f"server not healthy within {timeout_s:g}s")

    def sigkill(self) -> None:
        # Pool workers are forked children: they survive their parent's
        # SIGKILL and keep holding the inherited listening socket, which
        # would block the restarted server's bind().  A real crash takes
        # the whole tree down, so emulate that faithfully.
        orphans = child_pids(self.proc.pid)
        self.proc.kill()
        self.proc.wait(timeout=10)
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:  # pragma: no cover - already gone
                pass
        self._log.close()

    def sigterm(self, timeout_s: float = 30.0) -> int:
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=timeout_s)
        self._log.close()
        return code

    def kill_one_worker(self) -> int | None:
        """SIGKILL one executor worker process; returns its pid."""
        for pid in child_pids(self.proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:  # pragma: no cover - worker exited first
                continue
            return pid
        return None


def _wait_port_free(port: int, timeout_s: float = 15.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind(("127.0.0.1", port))
                return
            except OSError:
                time.sleep(0.05)
    raise ChaosFailure(f"port {port} still bound {timeout_s:g}s after kill")


def _canonical(metrics: dict | None) -> str:
    return json.dumps(metrics, sort_keys=True)


def run_chaos_scenario(
    workdir,
    *,
    jobs: int = 8,
    duration: int = 10_000,
    port: int | None = None,
    kill_worker: bool = True,
    timeout_s: float = 180.0,
) -> dict:
    """Run the scripted kill-and-resume scenario; returns a report dict.

    Raises :class:`ChaosFailure` if any exactly-once / bit-identity
    invariant does not hold.
    """
    from repro.client import Session

    # Resolved once: the server runs with cwd=workdir, so a relative
    # store or journal path would be resolved against it a second time.
    workdir = Path(workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    port = port or free_port()
    store_path = workdir / "chaos-results.jsonl"
    journal_path = workdir / "chaos-journal.jsonl"
    doc = chaos_campaign_doc(jobs=jobs, duration=duration)
    _, specs = parse_campaign(doc)

    # Ground truth: the same specs through the serial orchestrator path.
    serial_store = ResultStore(workdir / "serial-results.jsonl")
    serial = {
        spec.key(): outcome.metrics
        for spec, outcome in zip(
            specs, run_jobs(specs, jobs=1, store=serial_store)
        )
    }

    report: dict = {"jobs": len(specs), "phases": [], "port": port}

    def server(resume: bool, log_name: str) -> ServerProcess:
        _wait_port_free(port)
        srv = ServerProcess(
            port=port, store=store_path, journal=journal_path,
            workdir=workdir, resume=resume, log_name=log_name,
        )
        srv.wait_healthy()
        return srv

    def wait_for(session: Session, campaign_id: str, predicate,
                 what: str, deadline: float) -> dict:
        while time.monotonic() < deadline:
            counts = session.get_campaign(campaign_id).data["counts"]
            if predicate(counts):
                return counts
            time.sleep(0.05)
        raise ChaosFailure(f"timed out waiting for {what}")

    deadline = time.monotonic() + timeout_s
    with Session(f"http://127.0.0.1:{port}", tenant="chaos") as session:
        # -- phase 1: submit, then kill mid-queue -----------------------
        srv = server(resume=False, log_name="serve-1.log")
        campaign = session.submit_campaign(doc)
        cid = campaign.id
        srv.sigkill()
        report["phases"].append(
            {"phase": "kill-mid-queue", "campaign": cid}
        )

        # -- phase 2: resume; kill again once execution is underway -----
        srv = server(resume=True, log_name="serve-2.log")
        # One logical stream across every remaining restart: the collector
        # rides the ?since= cursor and must see each job event exactly once.
        events: list = []
        stream_error: list[BaseException] = []

        def collect() -> None:
            try:
                for event in session.get_campaign(cid).stream():
                    events.append(event)
            except BaseException as exc:  # surfaced by the main thread
                stream_error.append(exc)

        collector = threading.Thread(target=collect, daemon=True)
        collector.start()
        counts = wait_for(
            session, cid,
            lambda c: c["running"] + c["ok"] + c["cached"] > 0,
            "execution to begin after first resume", deadline,
        )
        srv.sigkill()
        report["phases"].append({"phase": "kill-mid-execution",
                                 "counts_at_kill": counts})

        # -- phase 3: resume; kill one worker process mid-job -----------
        srv = server(resume=True, log_name="serve-3.log")
        if kill_worker:
            wait_for(session, cid, lambda c: c["running"] > 0,
                     "a running job to target its worker", deadline)
            victim = srv.kill_one_worker()
            report["phases"].append(
                {"phase": "kill-worker", "pid": victim}
            )

        # -- completion -------------------------------------------------
        collector.join(timeout=max(1.0, deadline - time.monotonic()))
        if collector.is_alive():
            raise ChaosFailure(
                "event stream never reached a terminal event"
            )
        if stream_error:
            raise ChaosFailure(
                f"client stream failed: {stream_error[0]!r}"
            ) from stream_error[0]

        final = session.get_campaign(cid).data
    graceful_exit = srv.sigterm()
    report["graceful_exit_code"] = graceful_exit

    # -- invariants -----------------------------------------------------
    job_events = [e for e in events if e.event == "job"]
    seqs = [e.seq for e in job_events]
    ids = [e.id for e in job_events]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ChaosFailure(f"duplicate job events for {dupes}")
    if sorted(seqs) != list(range(len(specs))):
        raise ChaosFailure(
            f"event seq gap/duplicate: got {sorted(seqs)}"
        )
    if len(job_events) != len(specs):
        raise ChaosFailure(
            f"expected {len(specs)} job events, saw {len(job_events)}"
        )
    counts = final["counts"]
    if counts["ok"] + counts["cached"] != len(specs) or counts["failed"]:
        raise ChaosFailure(f"campaign did not fully succeed: {counts}")

    # Store: exactly one record per key (no lost, no double executions).
    lines_per_key: dict[str, int] = {}
    with store_path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn by a kill; invisible to dedup too
            lines_per_key[record["key"]] = (
                lines_per_key.get(record["key"], 0) + 1
            )
    if set(lines_per_key) != set(serial):
        raise ChaosFailure(
            f"store keys diverge from serial ground truth: "
            f"{set(lines_per_key) ^ set(serial)}"
        )
    doubles = {k: n for k, n in lines_per_key.items() if n != 1}
    if doubles:
        raise ChaosFailure(f"double-recorded executions: {doubles}")

    # Bit-identity with the serial path.
    final_store = ResultStore(store_path)
    for key, metrics in serial.items():
        got = final_store.get(key)
        if got is None or _canonical(got["metrics"]) != _canonical(metrics):
            raise ChaosFailure(f"metrics diverged from serial for {key}")

    report["events"] = len(job_events)
    report["counts"] = counts
    report["records"] = len(lines_per_key)
    report["ok"] = True
    logger.info(
        "chaos scenario ok: %d job(s) exactly once across 2 server kills"
        "%s, metrics bit-identical to serial",
        len(specs), " + 1 worker kill" if kill_worker else "",
    )
    return report


def cli_chaos_serve(args) -> int:
    """Back ``repro chaos-serve``: run the scenario, log the verdict."""
    import tempfile

    if args.workdir:
        workdir = Path(args.workdir)
    else:
        workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-serve-"))
    try:
        report = run_chaos_scenario(
            workdir,
            jobs=args.jobs,
            duration=args.duration,
            port=args.port,
            kill_worker=not args.no_worker_kill,
            timeout_s=args.timeout,
        )
    except ChaosFailure as exc:
        raise ConfigError(f"chaos scenario FAILED: {exc}")
    return 0 if report.get("ok") else 1
