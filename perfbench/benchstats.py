"""Arithmetic of the benchmark: percentiles with sample counts, failure
shares, run-to-run spread, span self time and the host-speed probe.

Kept free of any import from the program under test so that its tests
(``test_perfbench.py``) run without the repository's sources.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

# A percentile is reported as trustworthy only when at least this many
# samples lie beyond it (so p90 needs >= 100 samples).
MIN_TAIL_SAMPLES = 10


def quantile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) by linear interpolation between ranks.

    Matches ``numpy.quantile(..., method="linear")``: rank ``q * (n - 1)``
    of the sorted samples, interpolated between its two neighbours.
    """
    if not samples:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-quantile's rank.

    Counted by rank, not by value, so ties do not change it:
    ``floor(count * (1 - q))`` (10 of 100 samples lie beyond p90).
    """
    return math.floor(count * (1.0 - q) + 1e-9)


@dataclass(frozen=True)
class Percentiles:
    """Median and p90 of one sample, with the counts that qualify them."""

    count: int
    p50: float
    p90: float
    beyond_p90: int

    @property
    def p90_trusted(self) -> bool:
        """True when at least ``MIN_TAIL_SAMPLES`` samples lie beyond p90."""
        return self.beyond_p90 >= MIN_TAIL_SAMPLES


def percentiles(samples: Sequence[float]) -> Percentiles:
    """p50 and p90 of ``samples`` plus how many samples back the p90."""
    return Percentiles(
        count=len(samples),
        p50=quantile(samples, 0.5),
        p90=quantile(samples, 0.9),
        beyond_p90=samples_beyond(len(samples), 0.9),
    )


# The host's speed swings by up to 2x within a minute: a fixed cycle of 12
# EPTAS ops took between 1.13 s and 2.02 s over 95 s of one run, and a fixed
# pure-Python loop timed after each op moved with it (inter-quartile spread
# of the cycle times 0.33 raw, 0.06 divided by the loop's time).  Timings
# are therefore reported in reference seconds: measured seconds times
# REFERENCE_PROBE_S / the probe's time measured next to them.  The probe
# allocates, hashes and iterates like the program's Python code does; under
# a memory-bound neighbour process it tracked EPTAS op times to within 2 %.
REFERENCE_PROBE_S = 0.0037  # about the probe's median on the reference host
PROBE_ITEMS = 10_000


def probe_s() -> float:
    """Seconds of a fixed pure-Python workload, best of 3: the host's speed now."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        items = [(i, i * 0.5, (i % 7,)) for i in range(PROBE_ITEMS)]
        index = {item[0]: item for item in items[::5]}
        sum(a for a, _, _ in items if a % 3) + len(index)
        best = min(best, time.perf_counter() - started)
    return best


def host_scale() -> float:
    """Factor that turns seconds measured now into reference seconds."""
    return REFERENCE_PROBE_S / probe_s()


def failed_share(attempted: int, failed: int) -> float:
    """Share of attempted operations that failed, were refused or were wrong."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance of ``values`` as a share of their median.

    Uses ``statistics.quantiles(values, n=4)`` (its default, exclusive
    method), the way runs of the benchmark are compared with each other.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        raise ValueError("spread is undefined for a zero median")
    return (q3 - q1) / abs(median)


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the id of the span that caused it."""

    sid: str
    parent: str | None
    name: str
    start: float
    end: float
    op: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Self time of every span, keyed by span id.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (children clipped to the parent's interval,
    overlapping children counted once).
    """
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[str, float] = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.sid, ())
            if child.end > span.start and child.start < span.end
        ]
        result[span.sid] = span.duration - _covered(clipped)
    return result


def busy_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.sid]
    return totals
