"""Order statistics and span arithmetic shared by both entry points."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# Candidate tail quantiles, highest first.
TAIL_QUANTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_SAMPLES_BEYOND = 10


@dataclass
class Span:
    """One timed interval; ``parent`` is an index into the same list."""

    name: str
    start: float
    end: float
    parent: int | None = None
    tag: str = ""  # what the spans of one request share (campaign id)

    @property
    def duration(self) -> float:
        return self.end - self.start


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def tail_quantile(n: int) -> float | None:
    """Highest candidate quantile with >= 10 of ``n`` samples beyond it."""
    for q in TAIL_QUANTILES:
        # Whole samples above the nearest-rank position.
        if n - math.ceil(n * q / 100.0) >= MIN_SAMPLES_BEYOND:
            return q
    return None


def summary(values) -> dict:
    """median/q1/q3/min/max/n of a metric's per-repeat values."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def spread(values) -> float:
    """(q3 - q1) / median: the run-to-run spread the bounds are set from."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else math.inf


def worsening(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: duration minus the part its child spans cover.

    Children may overlap each other (two server calls under one client
    call), so coverage is the length of the union of the child
    intervals clipped to the parent, not the sum of child durations.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.name] = out.get(span.name, 0.0) + span.duration - covered
    return out
