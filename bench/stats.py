"""Order statistics and failure accounting shared by the benchmark."""
from __future__ import annotations

import statistics
from collections import Counter

# A tail latency is read at the highest percentile that still has this many
# samples beyond it, so it always rests on more than a single outlier.
TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND, cap: float = 100.0) -> tuple[float, float, int]:
    """The highest percentile, up to ``cap``, with ``beyond`` samples above it.

    Below the cap this is the (beyond+1)-th largest sample, at percentile
    rank 100*(n-beyond)/n; with more samples it is the sample at rank ``cap``.
    Returns ``(value, percentile, n)``.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    ordered = sorted(samples)
    index = min(n - beyond - 1, int(cap / 100.0 * n) - 1)
    return ordered[index], 100.0 * (index + 1) / n, n


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def rel_gap(got: float, want: float) -> float:
    """Relative gap with the acceptance tests' floor: |got-want|/max(1,|want|)."""
    return abs(got - want) / max(1.0, abs(want))


class Tally:
    """Attempted and failed requests, the reasons for failures, and the worst
    oracle gap seen among requests that passed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()
        self.max_gap = 0.0

    def record(self, reason: str | None, gap: float = 0.0) -> None:
        """Count one request; ``reason`` is None when it passed its oracle."""
        self.attempted += 1
        if reason is None:
            self.max_gap = max(self.max_gap, gap)
        else:
            self.failed += 1
            self.reasons[reason] += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
