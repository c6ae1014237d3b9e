"""Percentiles that carry their sample count.

A percentile is reported only when the sample supports it: at least
``MIN_BEYOND`` samples must lie beyond it (so a p99 needs 1000 samples, a
p50 needs 20).  Unsupported percentiles are reported as ``None`` and
printed with the count that was short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional

MIN_BEYOND = 10


def min_samples(q: float) -> int:
    """Smallest sample count with ``MIN_BEYOND`` samples beyond quantile ``q``."""
    n = MIN_BEYOND
    while n - math.ceil(q * n) < MIN_BEYOND:
        n += 1
    return n


@dataclass(frozen=True)
class Percentile:
    q: float
    value: Optional[float]
    n: int

    @property
    def label(self) -> str:
        return f"p{round(self.q * 100):d}"

    def describe(self, unit: str) -> str:
        if self.value is None:
            return f"{self.label} not reported (n={self.n}, needs {min_samples(self.q)})"
        return f"{self.label}={self.value:.4g} {unit} (n={self.n})"


def percentile(samples: Iterable[float], q: float) -> Percentile:
    """Nearest-rank ``q``-quantile of ``samples``, or ``value=None`` when
    fewer than ``MIN_BEYOND`` samples lie beyond it."""
    ordered: List[float] = sorted(samples)
    n = len(ordered)
    if n - math.ceil(q * n) < MIN_BEYOND:
        return Percentile(q, None, n)
    return Percentile(q, ordered[max(0, math.ceil(q * n) - 1)], n)

