"""Durable write-ahead journal for service campaign/job state.

The result store already makes *results* survive a server crash; this
journal makes the *work* survive.  Every submission, execution attempt,
requeue and terminal transition is appended as one JSON line **before**
the corresponding in-memory mutation becomes externally visible, so a
server restarted with ``repro serve --resume`` can rebuild exactly the
campaigns, job envelopes and per-campaign event logs that were live at
the moment of the crash and re-queue whatever had not finished.

Design points, mirroring the store's semantics
(:mod:`repro.orchestrate.store`):

* **Append-only JSONL, torn-tail tolerant.**  One flushed ``write()``
  per *transition*: a single op (``run``, ``requeue``, ``finish``,
  ``cancel``, ``drain``) is written as it is appended, and a submission
  (its ``campaign`` op, its ``job`` ops and the ``finish`` ops of jobs
  that resolved from cache) is held by :meth:`CampaignJournal.batch` and
  lands as one write of whole lines before the submission becomes
  visible.  The append handle stays open between writes.  Flushed means
  handed to the OS, not fsynced: the journal survives the server's
  death, not the machine's.  A line torn by a crash mid-write is skipped
  on load -- every line before it is intact -- and the journal stays
  usable.  The op stream is self-describing (``op`` field), so unknown
  ops from a newer server version are ignored, not fatal.
* **Results never live here.**  A ``finish`` op records *that* a job
  resolved and how (status, attempts, elapsed, failure); the metrics
  payload is re-read from the result store on resume by content key.
  The journal therefore stays small and the store remains the single
  source of truth for simulation output.
* **Idempotent resume.**  A job whose execution recorded to the store
  but whose ``finish`` op was lost to the crash simply re-enters the
  submission gates on resume and resolves as ``cached`` -- content
  keys make re-admission safe, never a double execution.
* **Compaction on resume.**  After a successful replay the journal is
  atomically rewritten to its snapshot form (campaign / job / terminal
  finish ops only), so repeated crash/resume cycles cannot grow the
  file without bound.

Op vocabulary (all dicts carry ``"op"``)::

    campaign  {campaign_id, name, tenant, priority, created_at}
    cancel    {campaign_id}
    job       {job_id, campaign_id, spec, tenant, priority, submitted_at}
    run       {job_id, attempt}                      execution started
    requeue   {job_id, attempt, reason}              worker died; re-admitted
    finish    {job_id, status, from_cache, elapsed_s, attempts,
               failure, coalesced_with, finished_at} terminal transition
    drain     {pending}                              graceful shutdown marker
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from repro.orchestrate.store import BaseResultStore
from repro.orchestrate.store_sqlite import SqliteResultStore

OP_CAMPAIGN = "campaign"
OP_CANCEL = "cancel"
OP_JOB = "job"
OP_RUN = "run"
OP_REQUEUE = "requeue"
OP_FINISH = "finish"
OP_DRAIN = "drain"


class CampaignJournal:
    """Append-only JSONL write-ahead journal with atomic compaction."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.appended = 0
        self._fh = None  # append handle, opened by the first write
        self._held: list[str] | None = None  # lines of the open batch

    def append(self, op: dict) -> None:
        """Durably append one op (one line, flushed) before returning.

        Inside :meth:`batch` the line is held instead and lands with the
        rest of the batch.
        """
        line = json.dumps(op) + "\n"
        if self._held is not None:
            self._held.append(line)
        else:
            self._write(line)
        self.appended += 1

    @contextmanager
    def batch(self):
        """Land every op appended in the body as one flushed write.

        The write happens when the body ends, also when it raises: the
        ops appended up to the exception are exactly what the journal
        holds, as if each had been written on its own.
        """
        self._held = []
        try:
            yield
        finally:
            held, self._held = self._held, None
            if held:
                self._write("".join(held))

    def _write(self, text: str) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        # Like the JSONL store: one O_APPEND write lands at the end of
        # the file whoever else appends, so concurrent appends interleave
        # whole writes and a crash can only tear the last one.
        self._fh.write(text)
        self._fh.flush()

    def close(self) -> None:
        """Release the append handle; the next write reopens it."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def load(self) -> list[dict]:
        """Every intact op in append order; torn/garbage lines skipped."""
        if not self.path.exists():
            return []
        ops: list[dict] = []
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    op = json.loads(line)
                except json.JSONDecodeError:
                    # Torn tail (crash mid-append) or interleaved write:
                    # every intact line is independent, skip and go on.
                    continue
                if isinstance(op, dict) and isinstance(op.get("op"), str):
                    ops.append(op)
        return ops

    def rewrite(self, ops: list[dict]) -> None:
        """Atomically replace the journal with a compacted op stream.

        Temp file + rename, exactly like the store's ``compact``: a
        crash mid-rewrite leaves the original journal intact.  The append
        handle is closed first: kept across the rename it would go on
        appending to the unlinked old file.
        """
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".compact-tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for op in ops:
                fh.write(json.dumps(op) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(self.path)

    def describe(self) -> dict:
        size = self.path.stat().st_size if self.path.exists() else 0
        return {"path": str(self.path), "bytes": size}


def default_journal_path(store: BaseResultStore) -> Path:
    """Where the journal lives when the operator names only a store.

    Sqlite stores are directories, so the journal joins ``index.db``
    at the root; a JSONL store gets a ``.journal`` sibling.
    """
    path = store.path
    if isinstance(store, SqliteResultStore):
        return path / "journal.jsonl"
    return path.with_name(path.name + ".journal")
