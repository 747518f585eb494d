"""Order statistics shared by the runner and the regression gate."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0-100) of an ascending sequence."""
    rank = max(int(-(-p * len(ordered) // 100)), 1)
    return ordered[min(rank, len(ordered)) - 1]


# Tail percentiles reported when enough samples lie beyond them.
_TAILS = (99.9, 99.0, 90.0, 75.0)


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest of p99.9/p99/p90/p75 with at least ten samples beyond
    it, or None when the run holds too few samples for any of them."""
    ordered = sorted(values)
    for p in _TAILS:
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            return {"p": p, "value": percentile(ordered, p)}
    return None


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, spread, sample count and tail of one metric's
    samples."""
    q1, _, q3 = quartiles(list(values))
    return {"value": statistics.median(values), "n": len(values),
            "q1": q1, "q3": q3, "spread": spread(values),
            "tail": tail(values)}
