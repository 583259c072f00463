"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

TAIL_BEYOND = 10  # samples that must lie above a reported tail percentile


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int | None:
    """Highest whole percentile with at least ``beyond`` of ``n`` samples above it.

    Percentiles use the nearest-rank rule, so percentile p sits at rank
    ceil(p * n / 100) and ``n - rank`` samples lie beyond it.  None when
    fewer than ``beyond + 1`` samples exist.
    """
    if n <= beyond:
        return None
    return (100 * (n - beyond)) // n


def nearest_rank(samples: Sequence[float], p: int) -> float:
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def tail(samples: Sequence[float]) -> tuple[int, float, int]:
    """(percentile, value, sample count) by the rule of :func:`tail_percentile`."""
    p = tail_percentile(len(samples))
    if p is None:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {len(samples)}")
    return p, nearest_rank(samples, p), len(samples)


def censored_recovery(recovery: int | None, break_at: int, length: int) -> int:
    """Recovery ticks, with a break that never recovers censored at episode end."""
    return length - break_at if recovery is None else recovery


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))
