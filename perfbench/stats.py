"""The benchmark's arithmetic: percentiles, failure shares, span self time.

Everything here is pure and small so ``test_stats.py`` can pin it down
exactly; ``run.py`` and ``tracing.py`` use these functions and nothing
else for the numbers they report.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, List, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]).

    The same rule as ``statistics.quantiles(method="inclusive")`` and
    numpy's default: rank ``q/100 * (n - 1)`` between the sorted order
    statistics.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile
    rank — the count the ten-samples-beyond sizing rule is about."""
    if n <= 0:
        return 0
    rank = q / 100.0 * (n - 1)
    return n - 1 - math.floor(rank)


#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """``percentile``, refusing a percentile with fewer than
    :data:`MIN_BEYOND` samples beyond it (the run is too small to say)."""
    have = beyond(len(samples), q)
    if have < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has {have} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return percentile(samples, q)


def censored_latencies(
    due: Sequence[float], done: Sequence[Optional[float]], horizon: float
) -> List[float]:
    """Latency per operation from its due time; an operation that never
    completed counts as ``horizon - due``.

    Censoring at the horizon keeps a failed operation in the
    distribution at the worst latency it could have had, so completing
    more slow operations can only move a percentile down, never up.
    """
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    out = []
    for start, end in zip(due, done):
        if start > horizon:
            raise ValueError(f"operation due at {start} is after the horizon {horizon}")
        out.append((horizon if end is None else end) - start)
    return out


def fail_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted operations."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def packet_failures(sent: int, delivered: int, policy_dropped: int) -> int:
    """Client packets neither delivered nor dropped by an NF decision."""
    failed = sent - delivered - policy_dropped
    if failed < 0 or min(delivered, policy_dropped) < 0:
        raise ValueError(
            f"{delivered} delivered + {policy_dropped} dropped does not fit {sent} sent"
        )
    return failed


def ratio(numerator: float, denominator: float) -> float:
    """A useful-work ratio; 0.0 when nothing was attempted (the layer
    did no work on this workload)."""
    return numerator / denominator if denominator else 0.0


def overhead_frac(traced_wall: float, untraced_wall: float) -> float:
    """Tracing overhead: extra wall time of the traced run over the
    untraced run of the same inputs, as a share of the untraced time."""
    if untraced_wall <= 0:
        raise ValueError("untraced wall time must be positive")
    return (traced_wall - untraced_wall) / untraced_wall


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> Sequence[float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    Spans are given as parallel sequences; ``parents[i]`` is the index
    of span ``i``'s parent, or -1 for a root.  Overlapping or
    back-to-back children are counted once (interval union), so a
    span's self time is never negative.  Children are merged in start
    order, so memory stays a few flat arrays even for millions of spans
    (spans recorded on entry are already in that order).
    """
    n = len(starts)
    order: Iterable[int] = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(order, key=starts.__getitem__)
    cover = array("d", bytes(8 * n))
    run_start = array("d", bytes(8 * n))
    run_end = array("d", [-math.inf]) * n
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo, hi = max(starts[i], starts[p]), min(ends[i], ends[p])
        if hi <= lo:
            continue
        if lo > run_end[p]:
            if run_end[p] > run_start[p]:
                cover[p] += run_end[p] - run_start[p]
            run_start[p], run_end[p] = lo, hi
        elif hi > run_end[p]:
            run_end[p] = hi
    out = array("d", bytes(8 * n))
    for i in range(n):
        if run_end[i] > run_start[i]:
            cover[i] += run_end[i] - run_start[i]
        out[i] = ends[i] - starts[i] - cover[i]
    return out
