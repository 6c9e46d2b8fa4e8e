"""Sharded sqlite result store: the service-scale backend.

Layout under one root directory::

    <root>/
      index.db            key -> shard name (cross-campaign dedup index)
      shards/<name>.db    full records for one campaign

Each shard's ``records`` table uses the JobSpec content-hash key as
PRIMARY KEY -- that is the index the cache lookups ride -- and stores
the canonical record dict (:func:`~repro.orchestrate.store.make_record`)
as a JSON blob, so a record round-trips bit-identically with the JSONL
backend (``copy_records`` / ``repro store convert``).

Why shard per campaign?  A million-job tenant appends only to its own
campaign's database file, so write contention and file growth stay
per-campaign while the small global index keeps cross-campaign dedup a
single lookup: a spec already computed under *any* campaign (or tenant)
is a cache hit for every later one.  Writes are last-record-wins
(``INSERT OR REPLACE``), matching JSONL replay semantics, and sqlite's
own locking makes concurrent multi-process appends safe.

Durability: every database runs in ``journal_mode=WAL`` with
``synchronous=FULL``.  A commit appends its pages to ``<name>.db-wal``
and fsyncs that file once, so a record is on disk when ``record()``
returns -- the guarantee the rollback journal gave, without creating,
syncing and unlinking a journal file per commit.  The mode is stored in
the database file: a store written in rollback mode converts the first
time it is opened here.  ``<name>.db-wal`` and ``<name>.db-shm`` sit
beside each open database; the last connection to close folds the WAL
back into the ``.db`` and removes both, and a process killed before
that leaves a WAL the next open replays.  The ``-shm`` file is a memory
mapping shared by every process that has the database open, which is
why a store must live on a local filesystem, not a network one.
"""

from __future__ import annotations

import json
import re
import sqlite3
from pathlib import Path
from typing import Iterator

from repro.orchestrate.store import (
    DEFAULT_CAMPAIGN,
    BaseResultStore,
    CompactStats,
    make_record,
)

_SHARD_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    key      TEXT PRIMARY KEY,
    status   TEXT NOT NULL,
    campaign TEXT NOT NULL,
    record   TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_status ON records(status);
"""

_INDEX_SCHEMA = """
CREATE TABLE IF NOT EXISTS keys (
    key   TEXT PRIMARY KEY,
    shard TEXT NOT NULL
);
"""


def shard_name(campaign: str) -> str:
    """Filesystem-safe shard name for a campaign label."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", campaign).strip("._") or "default"
    return slug[:80]


class SqliteResultStore(BaseResultStore):
    """Per-campaign sharded sqlite store with a global key index."""

    def __init__(self, root) -> None:
        self.path = Path(root)
        (self.path / "shards").mkdir(parents=True, exist_ok=True)
        # Every database, the index included, opens on first use: a
        # server that starts over a store pays for what it touches.
        self._index_conn: sqlite3.Connection | None = None
        self._shards: dict[str, sqlite3.Connection] = {}

    @staticmethod
    def _open(path: Path, schema: str) -> sqlite3.Connection:
        conn = sqlite3.connect(path, check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=FULL")
        # One transaction around the whole schema: each DDL statement
        # on its own would be its own synced commit.
        conn.executescript(f"BEGIN;{schema}COMMIT;")
        return conn

    @property
    def _index(self) -> sqlite3.Connection:
        conn = self._index_conn
        if conn is None:
            conn = self._index_conn = self._open(
                self.path / "index.db", _INDEX_SCHEMA
            )
        return conn

    def _shard(self, name: str) -> sqlite3.Connection:
        conn = self._shards.get(name)
        if conn is None:
            conn = self._open(
                self.path / "shards" / f"{name}.db", _SHARD_SCHEMA
            )
            self._shards[name] = conn
        return conn

    def _shard_names(self) -> list[str]:
        on_disk = {p.stem for p in (self.path / "shards").glob("*.db")}
        return sorted(on_disk | set(self._shards))

    def _shard_of(self, key: str) -> str | None:
        row = self._index.execute(
            "SELECT shard FROM keys WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    # -- BaseResultStore ------------------------------------------------

    def __len__(self) -> int:
        row = self._index.execute("SELECT COUNT(*) FROM keys").fetchone()
        return int(row[0])

    def get(self, key: str) -> dict | None:
        shard = self._shard_of(key)
        if shard is None:
            return None
        row = self._shard(shard).execute(
            "SELECT record FROM records WHERE key = ?", (key,)
        ).fetchone()
        return json.loads(row[0]) if row else None

    def keys(self) -> list[str]:
        return [
            row[0]
            for row in self._index.execute("SELECT key FROM keys ORDER BY key")
        ]

    def records(self) -> Iterator[dict]:
        for key in self.keys():
            record = self.get(key)
            if record is not None:
                yield record

    def record(
        self,
        key: str,
        *,
        spec_dict: dict,
        status: str,
        metrics: dict | None = None,
        failure: dict | None = None,
        elapsed_s: float = 0.0,
        attempts: int = 1,
        campaign: str = DEFAULT_CAMPAIGN,
        recorded_at: float | None = None,
    ) -> dict:
        entry = make_record(
            key,
            spec_dict=spec_dict,
            status=status,
            metrics=metrics,
            failure=failure,
            elapsed_s=elapsed_s,
            attempts=attempts,
            campaign=campaign,
            recorded_at=recorded_at,
        )
        shard = shard_name(campaign)
        previous = self._shard_of(key)
        if previous is not None and previous != shard:
            # Last-record-wins across campaigns too: the key moves to
            # the new campaign's shard and the stale copy goes away.
            stale = self._shard(previous)
            stale.execute("DELETE FROM records WHERE key = ?", (key,))
            stale.commit()
        conn = self._shard(shard)
        conn.execute(
            "INSERT OR REPLACE INTO records (key, status, campaign, record) "
            "VALUES (?, ?, ?, ?)",
            (key, entry["status"], entry["campaign"], json.dumps(entry)),
        )
        conn.commit()
        self._index.execute(
            "INSERT OR REPLACE INTO keys (key, shard) VALUES (?, ?)",
            (key, shard),
        )
        self._index.commit()
        return entry

    def compact(self) -> CompactStats:
        """Sqlite is last-record-wins at write time; reclaim space only.

        There is no stale history to drop (``INSERT OR REPLACE`` already
        keeps one record per key), so compaction VACUUMs each shard and
        reports zero dropped records -- the CLI works uniformly across
        backends.
        """
        for name in self._shard_names():
            self._shard(name).execute("VACUUM")
        self._index.execute("VACUUM")
        return CompactStats(kept=len(self), dropped=0)

    def close(self) -> None:
        for conn in self._shards.values():
            conn.close()
        self._shards.clear()
        if self._index_conn is not None:
            self._index_conn.close()
            self._index_conn = None

    def describe(self) -> dict:
        shards = self._shard_names()
        return {
            "backend": "sqlite",
            "path": str(self.path),
            "records": len(self),
            "shards": shards,
        }

    # -- sqlite extras --------------------------------------------------

    def campaign_keys(self, campaign: str) -> list[str]:
        """Keys recorded under one campaign (its shard's contents)."""
        name = shard_name(campaign)
        if name not in self._shard_names():
            return []
        return [
            row[0]
            for row in self._shard(name).execute(
                "SELECT key FROM records ORDER BY key"
            )
        ]
