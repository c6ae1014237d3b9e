"""Counters, gauges and histograms: the aggregate side of observability.

:mod:`repro.runtime.metrics` has a :class:`~repro.runtime.metrics.Distribution`
purpose-built for harness summaries; this module generalizes the idea into
a small registry any layer can write to without knowing who will read it.
The percentile definition lives here (:func:`percentile_nearest_rank`) and
is shared with ``Distribution`` — which is now a thin view over
:class:`HistogramMetric` — so the two never disagree.

The registry speaks three instrument types (counter, gauge, histogram),
each addressable by name plus an optional label set (Prometheus-style:
``fault.injected{kind="stall"}``), with:

* **snapshot/delta semantics** — :meth:`MetricsRegistry.snapshot` is a
  plain nested dict; :meth:`MetricsRegistry.delta` subtracts a previous
  snapshot, so a caller can meter one phase of a long run;
* **Prometheus text exposition** — :meth:`MetricsRegistry.to_prometheus`
  renders the standard ``# TYPE`` + sample-line format, which is what a
  future ``repro serve`` daemon will put behind ``/metrics``.

Nearest-rank percentiles: the q-th percentile of ``n`` ordered samples is
the sample at 1-based rank ``ceil(q * n)`` — the smallest value such that
at least ``q`` of the mass is ≤ it.  Unlike interpolating definitions it
always returns an actual sample, and unlike the previous ad-hoc
``int(q*(n-1)+0.5)`` rounding it is exact at the edges (n=1, n=2, q→1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: a label set in canonical form: sorted (key, value) pairs
LabelKey = Tuple[Tuple[str, str], ...]


def percentile_nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The q-th (0 < q ≤ 1) nearest-rank percentile of ``ordered`` (which
    must be sorted ascending).  Returns 0.0 for an empty sample."""
    n = len(ordered)
    if n == 0:
        return 0.0
    if q <= 0.0:
        return float(ordered[0])
    rank = math.ceil(q * n)  # 1-based; q ≤ 1 ⇒ rank ≤ n
    return float(ordered[min(n, max(1, rank)) - 1])


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    return tuple(sorted(labels.items())) if labels else ()


def _render_name(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class CounterMetric:
    """A monotone named scalar."""

    name: str
    value: int = 0
    labels: LabelKey = ()

    def inc(self, delta: int = 1) -> None:
        self.value += delta


@dataclass
class GaugeMetric:
    """A named scalar that can move both ways (frontier size, in-flight
    transactions, ring occupancy)."""

    name: str
    value: float = 0.0
    labels: LabelKey = ()

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, delta: float = 1.0) -> None:
        self.value += delta

    def dec(self, delta: float = 1.0) -> None:
        self.value -= delta


@dataclass
class HistogramMetric:
    """A sample accumulator with nearest-rank order statistics."""

    name: str
    samples: List[float] = field(default_factory=list)
    labels: LabelKey = ()

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        return percentile_nearest_rank(sorted(self.samples), q)

    def summary(self) -> Dict[str, float]:
        ordered = sorted(self.samples)
        return {
            "count": float(len(ordered)),
            "sum": float(sum(ordered)),
            "mean": self.mean,
            "p50": percentile_nearest_rank(ordered, 0.50),
            "p95": percentile_nearest_rank(ordered, 0.95),
            "p99": percentile_nearest_rank(ordered, 0.99),
            "p999": percentile_nearest_rank(ordered, 0.999),
            "max": float(ordered[-1]) if ordered else 0.0,
        }


class MetricsRegistry:
    """A flat namespace of counters, gauges and histograms.

    Layers obtain instruments by name — and optionally a label dict —
    created on first use; a report consumer iterates :meth:`snapshot`.
    Not thread-safe — the whole library is a single-threaded simulation.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], CounterMetric] = {}
        self._gauges: Dict[Tuple[str, LabelKey], GaugeMetric] = {}
        self._histograms: Dict[Tuple[str, LabelKey], HistogramMetric] = {}

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> CounterMetric:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = CounterMetric(name, labels=key[1])
        return metric

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> GaugeMetric:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = GaugeMetric(name, labels=key[1])
        return metric

    def histogram(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> HistogramMetric:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = HistogramMetric(name, labels=key[1])
        return metric

    # -- reading -------------------------------------------------------------

    def counter_values(self) -> Dict[str, int]:
        """Flat ``rendered-name -> value`` view of the counters alone —
        the shape the library's ad-hoc stats dicts used to have, kept as
        the back-compat surface for :attr:`FaultInjector.stats` and
        :attr:`RecoveryPolicy.stats`."""
        return {
            _render_name(name, labels): counter.value
            for (name, labels), counter in sorted(self._counters.items())
        }

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Everything, as ``rendered-name -> summary`` (counters and
        gauges get ``{"value": x}``; histograms their full summary)."""
        out: Dict[str, Dict[str, float]] = {}
        for (name, labels), counter in sorted(self._counters.items()):
            out[_render_name(name, labels)] = {"value": float(counter.value)}
        for (name, labels), gauge in sorted(self._gauges.items()):
            out[_render_name(name, labels)] = {"value": float(gauge.value)}
        for (name, labels), histogram in sorted(self._histograms.items()):
            out[_render_name(name, labels)] = histogram.summary()
        return out

    def delta(
        self, baseline: Mapping[str, Mapping[str, float]]
    ) -> Dict[str, Dict[str, float]]:
        """Per-metric numeric difference between :meth:`snapshot` now and
        a previously taken ``baseline`` snapshot (missing baseline
        entries count as zero) — phase metering for long runs."""
        current = self.snapshot()
        out: Dict[str, Dict[str, float]] = {}
        for name, summary in current.items():
            base = baseline.get(name, {})
            out[name] = {
                key: value - float(base.get(key, 0.0))
                for key, value in summary.items()
            }
        return out

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format.  Metric names are
        sanitised (dots → underscores); histograms render as summaries
        (quantile series plus ``_sum``/``_count``)."""
        def sanitise(name: str) -> str:
            return "".join(
                c if c.isalnum() or c == "_" else "_" for c in name
            )

        def labels_str(labels: LabelKey, extra: str = "") -> str:
            parts = [f'{k}="{v}"' for k, v in labels]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        lines: List[str] = []
        typed = set()

        def type_line(name: str, kind: str) -> None:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), counter in sorted(self._counters.items()):
            metric = sanitise(name)
            type_line(metric, "counter")
            lines.append(f"{metric}{labels_str(labels)} {counter.value}")
        for (name, labels), gauge in sorted(self._gauges.items()):
            metric = sanitise(name)
            type_line(metric, "gauge")
            lines.append(f"{metric}{labels_str(labels)} {gauge.value}")
        for (name, labels), histogram in sorted(self._histograms.items()):
            metric = sanitise(name)
            type_line(metric, "summary")
            summary = histogram.summary()
            for quantile, key in (
                ("0.5", "p50"), ("0.95", "p95"),
                ("0.99", "p99"), ("0.999", "p999"),
            ):
                qualified = labels_str(labels, f'quantile="{quantile}"')
                lines.append(f"{metric}{qualified} {summary[key]}")
            lines.append(f"{metric}_sum{labels_str(labels)} {summary['sum']}")
            lines.append(
                f"{metric}_count{labels_str(labels)} {int(summary['count'])}"
            )
        return "\n".join(lines) + ("\n" if lines else "")
