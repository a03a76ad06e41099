"""Order statistics and memory readings shared by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles the tail rule chooses from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed operations)
    sort above every finite value."""
    if not values:
        return 0.0
    ranked = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ranked)))
    return ranked[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ``TAIL_BEYOND``
    samples beyond it, or None when even the median has fewer."""
    best = None
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) >= TAIL_BEYOND * 100.0 - 1e-9:
            best = pct
    return best


def tail(values: Sequence[float]) -> Tuple[Optional[float], float]:
    """``(pct, value)`` for the tail rule over ``values``."""
    pct = tail_percentile(len(values))
    return pct, (percentile(values, pct) if pct is not None else 0.0)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0



def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the processes' peak resident set sizes (``VmHWM``)."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0
