"""Result stores: campaign memory, cache and resume point.

A result store maps JobSpec content keys
(:meth:`~repro.orchestrate.spec.JobSpec.key`) to the latest record for
that spec, so:

* re-running a campaign skips every point whose spec is unchanged
  (**cache hit** -- only ``status == "ok"`` records count; failures are
  remembered for the report but always re-executed),
* an interrupted campaign **resumes** where it stopped -- completed
  records are already on disk, the run picks up the remainder,
* editing one point's parameters changes its key and re-runs exactly
  that point.

Two backends share the :class:`BaseResultStore` contract:

* :class:`ResultStore` -- one append-only JSONL file.  Appends are
  flushed per record; torn lines (crash mid-write, or two writers
  colliding mid-file) are skipped on load, so a damaged file never
  poisons its successor.  Load replays every historical attempt;
  :meth:`~ResultStore.compact` rewrites the file to its
  last-record-wins snapshot (``repro store compact``).
* :class:`~repro.orchestrate.store_sqlite.SqliteResultStore` -- a
  directory of per-campaign sqlite shards with the content-hash key as
  primary key (the index), plus a global key->shard index database for
  O(1) cross-campaign dedup lookups.  The service layer
  (:mod:`repro.service`) defaults to this backend.

:func:`open_store` picks the backend from a path or URL;
:func:`copy_records` migrates records between backends (``repro store
convert``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

DEFAULT_CAMPAIGN = "default"


@dataclass(frozen=True)
class CompactStats:
    """Outcome of a store compaction: what survived, what was dropped."""

    kept: int
    dropped: int


def make_record(
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
    """The canonical record dict both backends persist.

    One shape everywhere means a record round-trips bit-identically
    between backends (``copy_records``) and between a store and the
    service's streamed job events.
    """
    return {
        "key": key,
        "status": status,
        "label": spec_dict.get("label", ""),
        "campaign": campaign,
        "elapsed_s": round(elapsed_s, 4),
        "attempts": attempts,
        "recorded_at": time.time() if recorded_at is None else recorded_at,
        "spec": spec_dict,
        "metrics": metrics,
        "failure": failure,
    }


class BaseResultStore:
    """Contract every result store backend implements.

    ``record`` is last-record-wins per key; ``cached_metrics`` only
    honours the latest record when it succeeded, so failures are
    remembered but always re-executed.  ``path`` is where the store
    lives: a file for JSONL, the root directory for sqlite.
    """

    path: Path

    def __len__(self) -> int:
        raise NotImplementedError

    def get(self, key: str) -> dict | None:
        """Latest record for a spec key, successful or not."""
        raise NotImplementedError

    def keys(self) -> list[str]:
        raise NotImplementedError

    def records(self) -> Iterator[dict]:
        """Iterate latest records, in stable (key-sorted) order."""
        raise NotImplementedError

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
        """Persist one job outcome; returns the stored record dict."""
        raise NotImplementedError

    def cached_metrics(self, key: str) -> dict | None:
        """Metrics for a key iff its latest record succeeded, else None."""
        record = self.get(key)
        if record is not None and record.get("status") == "ok":
            return record.get("metrics")
        return None

    def compact(self) -> CompactStats:
        """Drop superseded history; returns (kept, dropped) counts."""
        raise NotImplementedError

    def close(self) -> None:
        """Release file handles; the store must not be used afterwards."""

    def describe(self) -> dict:
        """Backend identity + size, for ``/api/store`` and CLI stats."""
        raise NotImplementedError


class ResultStore(BaseResultStore):
    """Append-only JSONL store with last-record-wins semantics per key."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._records: dict[str, dict] = {}
        self._loaded_records = 0
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # Torn line: an interrupted append at the tail, or an
                    # interleaved write from a concurrent process mid-file.
                    # Every intact line is independent, so skip and go on.
                    continue
                if not isinstance(record, dict):
                    continue
                key = record.get("key")
                if isinstance(key, str):
                    self._records[key] = record
                    self._loaded_records += 1

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> dict | None:
        return self._records.get(key)

    def keys(self) -> list[str]:
        return sorted(self._records)

    def records(self) -> Iterator[dict]:
        for key in self.keys():
            yield self._records[key]

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
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One write() of one line: on POSIX an O_APPEND write this small
        # lands atomically, so two processes appending concurrently
        # interleave whole lines rather than corrupting each other.
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
            fh.flush()
        self._records[key] = entry
        return entry

    def compact(self) -> CompactStats:
        """Rewrite the file to its last-record-wins snapshot.

        Load replays every historical attempt on every open; compaction
        keeps exactly one line per key (the surviving record) and
        reports how many stale lines were dropped.  The rewrite goes
        through a temp file + atomic rename so a crash mid-compact
        leaves the original intact.
        """
        total_lines = 0
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as fh:
                total_lines = sum(1 for line in fh if line.strip())
        kept = len(self._records)
        tmp = self.path.with_suffix(self.path.suffix + ".compact-tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self.path)
        return CompactStats(kept=kept, dropped=total_lines - kept)

    def describe(self) -> dict:
        return {
            "backend": "jsonl",
            "path": str(self.path),
            "records": len(self),
        }


def open_store(target) -> BaseResultStore:
    """Open a result store from a path or URL-ish string.

    * ``sqlite:DIR`` (or ``sqlite://DIR``), an existing directory, or a
      path with a ``.sqlite`` suffix -> the sharded
      :class:`~repro.orchestrate.store_sqlite.SqliteResultStore`
      rooted at that directory;
    * anything else (conventionally ``*.jsonl``) -> the single-file
      JSONL :class:`ResultStore`.
    """
    from repro.orchestrate.store_sqlite import SqliteResultStore

    text = str(target)
    if text.startswith("sqlite:"):
        root = text[len("sqlite:"):]
        # sqlite:dir, sqlite://dir and sqlite:///abs/dir all name the
        # shard root; the optional // is URL dressing.
        if root.startswith("//"):
            root = root[2:]
        return SqliteResultStore(root or ".")
    path = Path(text)
    if path.suffix == ".sqlite" or path.is_dir():
        return SqliteResultStore(path)
    return ResultStore(path)


def copy_records(src: BaseResultStore, dst: BaseResultStore) -> int:
    """Copy every surviving record from one store into another.

    Records keep their full payload including the original
    ``recorded_at`` stamp, so a migrated store is equivalent to the
    source record-for-record.  Returns the number copied.
    """
    copied = 0
    for record in src.records():
        dst.record(
            record["key"],
            spec_dict=record.get("spec") or {},
            status=record.get("status", "ok"),
            metrics=record.get("metrics"),
            failure=record.get("failure"),
            elapsed_s=record.get("elapsed_s", 0.0),
            attempts=record.get("attempts", 1),
            campaign=record.get("campaign", DEFAULT_CAMPAIGN),
            recorded_at=record.get("recorded_at"),
        )
        copied += 1
    return copied
