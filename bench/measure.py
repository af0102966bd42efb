"""Measurement helpers shared by the workloads (pure; unit-tested).

* :func:`percentile` — nearest-rank percentile that refuses to report a
  tail it has too few samples for;
* :func:`self_times` — per-span-name self time over a span tree;
* :func:`metrics_delta` — ``GET /metrics`` gauge deltas over a window;
* :class:`ZipfKeys` — the seeded read-key stream;
* :func:`open_loop` / :func:`stalled_share` — open-loop load accounting.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float, *, min_beyond: int = MIN_BEYOND) -> float:
    """The nearest-rank ``q``-th percentile of ``samples``.

    Failed operations enter as ``math.inf``, so they sort last and miss
    every latency limit.  Raises ``ValueError`` when fewer than
    ``min_beyond`` samples lie beyond the percentile: such a tail is
    one slow sample, not a measurement.
    """
    n = len(samples)
    beyond = samples_beyond(n, q)
    if beyond < min_beyond:
        raise ValueError(f"p{q:g} of {n} samples has {beyond} beyond it; need {min_beyond}")
    return sorted(samples)[n - beyond - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: Iterable[Mapping[str, Any]]) -> dict[str, float]:
    """Self time per span name: duration minus the interval its children cover.

    ``spans`` are span dicts (``span_id``, ``parent_id``, ``name``,
    ``start``, ``duration``); span ids are unique per ``pid``, so
    parents are matched within a pid.  Overlapping children (parallel
    chunk workers) are counted once.
    """
    spans = list(spans)
    children: dict[tuple[Any, Any], list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.get("parent_id") is not None:
            start = float(span["start"])
            children[(span.get("pid"), span["parent_id"])].append(
                (start, start + float(span["duration"]))
            )
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        start, duration = float(span["start"]), float(span["duration"])
        kids = children.get((span.get("pid"), span["span_id"]), [])
        totals[span["name"]] += duration - _covered(kids, start, start + duration)
    return dict(totals)


def metrics_delta(before: Mapping[str, Any], after: Mapping[str, Any]) -> dict[tuple, float]:
    """Gauge and counter deltas between two ``GET /metrics`` snapshots.

    Keys are ``(name, label)`` where ``label`` is the series' stage,
    result or endpoint label.  Cluster snapshots carry one row per
    worker plus a ``worker=_merged`` roll-up; only the roll-up (or an
    unlabelled worker-local row) is read.  Traffic before the first
    snapshot cancels out.
    """

    def flatten(snapshot: Mapping[str, Any]) -> dict[tuple, float]:
        rows: dict[tuple, float] = defaultdict(float)
        for kind in ("gauges", "counters"):
            for row in snapshot.get(kind, []):
                labels = row["labels"]
                if labels.get("worker", "_merged") != "_merged":
                    continue
                label = labels.get("stage") or labels.get("result") or labels.get("endpoint", "")
                rows[(row["name"], label)] += float(row["value"])
        return rows

    old, new = flatten(before), flatten(after)
    return {key: new[key] - old.get(key, 0.0) for key in new}


class ZipfKeys:
    """A seeded stream of key indices with Zipf(``s``) popularity.

    Rank ``r`` (1-based) has weight ``r ** -s``; which key holds which
    rank is a permutation drawn from ``seed``, and each ``stream``
    (one per load connection) draws independently.
    """

    def __init__(self, seed: int, stream: int, n_keys: int, s: float = 1.1) -> None:
        weights = np.arange(1, n_keys + 1, dtype=float) ** -s
        self._p = weights / weights.sum()
        self._order = np.random.default_rng([seed, n_keys]).permutation(n_keys)
        self._rng = np.random.default_rng([seed, n_keys, stream])

    def draw(self, n: int) -> list[int]:
        """The next ``n`` key indices."""
        ranks = self._rng.choice(self._p.size, size=n, p=self._p)
        return self._order[ranks].tolist()


@dataclass(frozen=True, slots=True)
class Arrival:
    """One open-loop request: when it was due, sent and completed."""

    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from due time to completion; a failure misses every limit."""
        return self.done - self.due if self.ok else math.inf


def open_loop(
    send: Callable[[int], bool],
    *,
    rate: float,
    duration: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Arrival]:
    """Issue ``send(i)`` at ``rate`` per second for ``duration`` seconds.

    Request ``i`` is due at ``start + i / rate`` whatever happened to
    earlier requests, so a stall charges every request due inside it
    from its due time, not from when the sender got round to it.
    """
    start = clock()
    arrivals: list[Arrival] = []
    i = 0
    while True:
        due = start + i / rate
        if due >= start + duration:
            return arrivals
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        ok = send(i)
        arrivals.append(Arrival(due=due, sent=now, done=clock(), ok=ok))
        i += 1


def stalled_share(dues: Sequence[float], intervals: Sequence[tuple[float, float]]) -> float:
    """Share of ``dues`` that fall inside any ``(start, end)`` interval."""
    if not dues:
        return 0.0
    stalled = sum(any(lo <= due < hi for lo, hi in intervals) for due in dues)
    return stalled / len(dues)
