"""The sqlite store in WAL mode: as durable as before, and compatible.

Every database runs ``journal_mode=WAL`` + ``synchronous=FULL``: one
fsync of the ``-wal`` file per commit instead of a rollback journal
created, synced and unlinked per commit.  These tests pin what must not
change with the mode: a record is on disk when ``record()`` returns,
stores written in rollback mode still open, the ``-wal`` / ``-shm``
siblings are invisible to every listing, and readers in other processes
are never locked out by a writer.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.orchestrate import (
    CompactStats,
    ResultStore,
    SqliteResultStore,
    copy_records,
)
from repro.orchestrate.store import make_record
from repro.orchestrate.store_sqlite import _INDEX_SCHEMA, _SHARD_SCHEMA

SRC = str(Path(__file__).resolve().parents[2] / "src")
SPEC = {"label": "wal", "seed": 0}


def run_python(script: str, *args, **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        **kwargs,
    )


def fill(store, count: int, campaign: str = "camp", first: int = 0) -> None:
    for i in range(first, first + count):
        store.record(f"{i:032x}", spec_dict=SPEC, status="ok",
                     metrics={"i": i}, campaign=campaign, recorded_at=1.0 + i)


def journal_mode(path: Path) -> str:
    conn = sqlite3.connect(path)
    try:
        return conn.execute("PRAGMA journal_mode").fetchone()[0]
    finally:
        conn.close()


def test_every_database_is_wal_and_full(tmp_path):
    store = SqliteResultStore(tmp_path / "store")
    fill(store, 2, "alpha")
    fill(store, 2, "beta", first=2)
    conns = [store._index, store._shard("alpha"), store._shard("beta")]
    for conn in conns:
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        # synchronous is per connection: 2 is FULL, every commit synced.
        assert conn.execute("PRAGMA synchronous").fetchone()[0] == 2
    store.close()
    # The mode is a property of the file, not of the connection.
    assert journal_mode(tmp_path / "store" / "index.db") == "wal"
    assert journal_mode(tmp_path / "store" / "shards" / "alpha.db") == "wal"


def test_index_opens_on_first_use(tmp_path):
    root = tmp_path / "store"
    store = SqliteResultStore(root)
    assert store.path == root
    assert not (root / "index.db").exists()
    store.close()  # closing a store that never opened anything is fine
    assert store.get("0" * 32) is None
    assert (root / "index.db").exists()
    store.close()


def test_sigkill_right_after_record_loses_nothing(tmp_path):
    """No close(), no checkpoint, no atexit: what ``record()`` returned
    for must be readable from the WAL by the next process."""
    root = tmp_path / "store"
    proc = run_python(
        """
        import os, signal, sys
        from repro.orchestrate import SqliteResultStore

        store = SqliteResultStore(sys.argv[1])
        for i in range(int(sys.argv[2])):
            store.record(f"{i:032x}", spec_dict={"label": "wal", "seed": 0},
                         status="ok", metrics={"i": i}, campaign="camp")
        os.kill(os.getpid(), signal.SIGKILL)
        """,
        root, 25,
    )
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGKILL, err
    # The records are still in the WAL, not yet in the database file.
    assert (root / "shards" / "camp.db-wal").stat().st_size > 0
    assert (root / "index.db-wal").stat().st_size > 0

    store = SqliteResultStore(root)
    assert len(store) == 25
    assert store.keys() == [f"{i:032x}" for i in range(25)]
    for i in range(25):
        assert store.get(f"{i:032x}")["metrics"] == {"i": i}
    store.close()
    assert not list(root.rglob("*-wal")) and not list(root.rglob("*-shm"))


def legacy_store(root: Path, count: int) -> list[dict]:
    """A store directory as versions before WAL wrote it: rollback
    journal, schema statements in autocommit."""
    (root / "shards").mkdir(parents=True)
    index = sqlite3.connect(root / "index.db")
    index.executescript(_INDEX_SCHEMA)
    shard = sqlite3.connect(root / "shards" / "old.db")
    shard.executescript(_SHARD_SCHEMA)
    records = []
    for i in range(count):
        entry = make_record(
            f"{i:032x}", spec_dict=SPEC, status="ok", metrics={"i": i},
            elapsed_s=0.25, campaign="old", recorded_at=100.0 + i,
        )
        shard.execute(
            "INSERT INTO records (key, status, campaign, record) "
            "VALUES (?, ?, ?, ?)",
            (entry["key"], "ok", "old", json.dumps(entry)),
        )
        index.execute("INSERT INTO keys (key, shard) VALUES (?, ?)",
                      (entry["key"], "old"))
        records.append(entry)
    shard.commit()
    index.commit()
    shard.close()
    index.close()
    return records


def test_rollback_mode_store_opens_converts_and_grows(tmp_path):
    root = tmp_path / "legacy"
    records = legacy_store(root, 5)
    assert journal_mode(root / "index.db") == "delete"
    assert journal_mode(root / "shards" / "old.db") == "delete"

    store = SqliteResultStore(root)
    assert list(store.records()) == records
    assert store.campaign_keys("old") == [r["key"] for r in records]
    fill(store, 3, "old", first=5)   # same shard
    fill(store, 2, "new", first=8)   # a shard created in WAL mode
    assert len(store) == 10
    store.close()

    for db in ("index.db", "shards/old.db", "shards/new.db"):
        assert journal_mode(root / db) == "wal"
    again = SqliteResultStore(root)
    assert list(again.records())[:5] == records
    assert len(again) == 10
    again.close()


def test_round_trips_stay_bit_identical_both_ways(tmp_path):
    """sqlite -> JSONL -> sqlite and back, from a rollback-mode source
    and with the WAL-mode stores still open (their ``-wal`` unmerged)."""
    records = legacy_store(tmp_path / "legacy", 6)
    legacy = SqliteResultStore(tmp_path / "legacy")
    jsonl = ResultStore(tmp_path / "hop.results.jsonl")
    assert copy_records(legacy, jsonl) == 6
    fresh = SqliteResultStore(tmp_path / "fresh")
    assert copy_records(jsonl, fresh) == 6
    back = ResultStore(tmp_path / "back.results.jsonl")
    assert copy_records(fresh, back) == 6
    for store in (legacy, jsonl, fresh, back):
        assert list(store.records()) == records
    assert [json.dumps(r, sort_keys=True) for r in fresh.records()] == [
        json.dumps(r, sort_keys=True) for r in records
    ]
    legacy.close()
    fresh.close()


def test_listings_ignore_wal_and_shm_siblings(tmp_path):
    root = tmp_path / "store"
    writer = SqliteResultStore(root)
    fill(writer, 3, "alpha")
    fill(writer, 2, "beta", first=3)
    # The writer is still open, so every database has its siblings.
    siblings = sorted(p.name for p in (root / "shards").iterdir())
    assert siblings == ["alpha.db", "alpha.db-shm", "alpha.db-wal",
                        "beta.db", "beta.db-shm", "beta.db-wal"]

    other = SqliteResultStore(root)
    assert other.describe()["shards"] == ["alpha", "beta"]
    assert other.describe()["records"] == 5
    assert other.keys() == [f"{i:032x}" for i in range(5)]
    assert other.campaign_keys("alpha") == [f"{i:032x}" for i in range(3)]
    assert other.campaign_keys("beta") == [f"{i:032x}" for i in (3, 4)]
    assert other.campaign_keys("alpha.db-wal") == []
    assert other.compact() == CompactStats(kept=5, dropped=0)
    assert other.describe()["shards"] == ["alpha", "beta"]
    assert writer.keys() == other.keys()
    other.close()
    writer.close()


def test_second_process_reads_while_the_first_writes(tmp_path):
    """A reader in another process polls the store while this one
    records; it must never see an error, a torn record or a count that
    goes backwards, and it must see the last record."""
    root = tmp_path / "store"
    total = 120
    writer = SqliteResultStore(root)
    fill(writer, 1)  # the layout exists before the reader starts
    reader = run_python(
        """
        import sys, time
        from repro.orchestrate import SqliteResultStore

        store = SqliteResultStore(sys.argv[1])
        total = int(sys.argv[2])
        seen, polls = 0, 0
        print("ready", flush=True)
        deadline = time.monotonic() + 60
        while seen < total and time.monotonic() < deadline:
            keys = store.keys()
            assert len(keys) >= seen, (len(keys), seen)
            seen = len(keys)
            for key in keys[-3:]:
                record = store.get(key)
                assert record is not None and record["key"] == key
            polls += 1
        print(seen, polls)
        """,
        root, total,
    )
    try:
        # The reader is polling before the first of these is written
        # and cannot finish until the last one has landed.
        assert reader.stdout.readline() == "ready\n"
        fill(writer, total - 1, first=1)
        out, err = reader.communicate(timeout=90)
    finally:
        reader.kill()
        writer.close()
    assert reader.returncode == 0, err
    seen, polls = map(int, out.split())
    assert seen == total
    assert polls >= 1
