"""Summary statistics with the benchmark's percentile-rank rule.

Every timing is reported as its median plus the *highest* percentile that
still has at least :data:`MIN_BEYOND` samples above it, together with the
sample count: a p99 over 200 samples rests on two observations and says
nothing, so the rule falls back to p90 there.  Percentiles use the
nearest-rank definition on the sorted sample.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

#: Samples that must lie strictly above a reported tail percentile.
MIN_BEYOND = 10


def rank_index(n: int, pct: float) -> int:
    """0-based nearest-rank index of the ``pct`` percentile of ``n`` samples."""
    if n <= 0:
        raise ValueError("percentile of an empty sample")
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point.
    return min(n - 1, max(0, math.ceil(round(pct * n / 100.0, 9)) - 1))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie after the ``pct`` percentile's rank."""
    return n - 1 - rank_index(n, pct)


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n > 0 and samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def percentile(sorted_samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample."""
    return sorted_samples[rank_index(len(sorted_samples), pct)]


def summarize(samples: Sequence[float]) -> dict:
    """Median, rule-selected tail percentile and sample count.

    When no percentile has ``MIN_BEYOND`` samples beyond it (fewer than 20
    samples), the tail is the maximum and ``tail_pct`` is ``None``.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("cannot summarize an empty sample")
    pct = tail_percentile(len(ordered))
    tail = percentile(ordered, pct) if pct is not None else ordered[-1]
    return {"n": len(ordered), "p50": percentile(ordered, 50.0), "tail_pct": pct, "tail": tail}


def describe(summary: dict, unit: str = "ms") -> str:
    """One-line rendering such as ``p50 2.1 ms, p99 9.8 ms (n=1130)``."""
    pct = summary["tail_pct"]
    label = "max" if pct is None else f"p{pct:g}"
    return f"p50 {summary['p50']:.4g} {unit}, {label} {summary['tail']:.4g} {unit} (n={summary['n']})"


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, 0 when the base is 0 (reports print the base beside it)."""
    return numerator / base if base else 0.0
