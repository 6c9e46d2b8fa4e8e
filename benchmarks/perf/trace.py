"""Per-layer attribution from outside the program under test.

A :class:`Tracer` times calls into a layer's public functions without
editing them: :meth:`Tracer.wrap` replaces a bound method on ONE
instance with a pass-through that adds the call's duration to a
per-call-site accumulator (and, for the service workloads, records one
span per call).  Nothing is set on a class, so an untraced object built
later in the same process -- and every other process -- runs the
original code.  Timed runs carry no tracer at all.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from benchmarks.perf.stats import Span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        # name -> [seconds, calls]; a list so wrappers update in place.
        self.cells: dict[str, list] = {}
        # Open-span stack per thread: the service runs its event loop on
        # one thread while the client drives it from another.
        self._open = threading.local()
        # The client call in flight, parent of server-side spans that
        # have no enclosing span on their own thread.
        self.client_span: int | None = None
        self.tag = ""

    # -- accumulators ---------------------------------------------------

    def cell(self, name: str) -> list:
        got = self.cells.get(name)
        if got is None:
            got = self.cells[name] = [0.0, 0]
        return got

    def seconds(self, name: str) -> float:
        return self.cell(name)[0]

    def calls(self, name: str) -> int:
        return self.cell(name)[1]

    # -- wrappers -------------------------------------------------------

    def wrap(self, obj, attr: str, name: str, *, span: bool = False) -> None:
        """Time ``obj.attr(...)`` under ``name`` on this instance only."""
        inner = getattr(obj, attr)
        cell = self.cell(name)
        if span:
            def traced(*args, **kwargs):
                with self.span(name):
                    return inner(*args, **kwargs)
        else:
            # Hot simulator call sites (over a million calls a run): an
            # accumulator only, no span and no context manager.
            def traced(*args, **kwargs):
                start = perf_counter()
                result = inner(*args, **kwargs)
                cell[0] += perf_counter() - start
                cell[1] += 1
                return result
        setattr(obj, attr, traced)

    # -- spans ----------------------------------------------------------

    def add_span(self, name: str, start: float, end: float,
                 parent: int | None = None) -> int:
        self.spans.append(Span(name, start, end, parent, self.tag))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, *, client: bool = False):
        """Record one span (and its accumulator) around the body.

        ``client=True`` marks a call the load generator makes: while it
        is open, spans started on other threads become its children.
        """
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        parent = stack[-1] if stack else self.client_span
        index = self.add_span(name, perf_counter(), 0.0, parent)
        stack.append(index)
        if client:
            self.client_span = index
        try:
            yield index
        finally:
            span = self.spans[index]
            span.end = perf_counter()
            stack.pop()
            if client:
                self.client_span = None
            cell = self.cell(name)
            cell[0] += span.duration
            cell[1] += 1

    def dump(self, path: Path) -> Path:
        """Write the spans as JSONL once the run has ended."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "tag": span.tag,
                }) + "\n")
        return path
