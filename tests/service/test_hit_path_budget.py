"""What a cache hit may cost, as counts (they repeat exactly; no timer).

An all-cached campaign submitted to an in-process ``ServiceState`` must
hash each spec at most once, encode it once per journaled ``job`` op and
reach the journal file with exactly one write.  A change that re-hashes
per event or writes per op fails here before any benchmark runs.
"""

from repro.orchestrate import ResultStore, parse_campaign
from repro.orchestrate.spec import JobSpec
from repro.service.scheduler import FairScheduler
from repro.service.state import ServiceState

DOCUMENT = {
    "name": "budget",
    "defaults": {
        "topology": "mesh", "dims": "4x4", "protocol": "clrp",
        "workload": {"kind": "uniform", "load": 0.05, "length": 32,
                     "duration": 1500},
    },
    "grid": {"workload.load": [0.05, 0.1, 0.2], "seed": [0, 1, 2, 3]},
}


class CountingHandle:
    """The journal's append handle, counting what reaches the file."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return self.inner.write(text)

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()


def counted(monkeypatch, name: str) -> list:
    """Count calls of ``JobSpec.<name>`` on every instance."""
    calls = []
    real = getattr(JobSpec, name)

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(JobSpec, name, counting)
    return calls


def test_cached_submission_stays_within_budget(
    tmp_path, monkeypatch, open_journal
):
    store = ResultStore(tmp_path / "results.jsonl")
    _, specs = parse_campaign(DOCUMENT)
    for spec in specs:
        store.record(spec.key(), spec_dict=spec.to_dict(), status="ok",
                     metrics={"delivered": 1})
    journal = open_journal(tmp_path / "journal.jsonl")
    state = ServiceState(store, FairScheduler(), journal=journal)
    journal.append({"op": "drain", "pending": 0})  # opens the handle
    handle = journal._fh = CountingHandle(journal._fh)

    hashes = counted(monkeypatch, "_content_hash")
    encodes = counted(monkeypatch, "to_dict")
    for tenant in ("alice", "bob"):
        # Fresh spec objects each time, as the server parses them.
        _, specs = parse_campaign(DOCUMENT)
        jobs = len(specs)
        before = (len(hashes), len(encodes), handle.writes, journal.appended)
        campaign = state.submit("budget", specs, tenant=tenant)
        assert campaign.counts()["cached"] == jobs == 12
        # Admission, the event and the job listing all read the key.
        assert [e["key"] for e in campaign.events] == [s.key() for s in specs]
        [job.as_dict(with_spec=False) for job in campaign.jobs]

        assert len(hashes) - before[0] == jobs  # one hash per spec
        # One encoding inside each hash, one per journaled job op.
        assert len(encodes) - before[1] == 2 * jobs
        assert journal.appended - before[3] == 1 + 2 * jobs
        assert handle.writes - before[2] == 1  # the whole submission
    ops = journal.load()
    assert len(ops) == 1 + 2 * (1 + 2 * 12)
