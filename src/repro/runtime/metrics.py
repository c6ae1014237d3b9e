"""Run-level metrics: distributions behind the harness's headline numbers.

The headline rows (commits, aborts, throughput) hide tail behaviour —
which transaction retried 12 times, how long commits took in scheduler
quanta.  :func:`summarize` computes the distributions a TM paper's
evaluation section normally plots:

* **attempts per transaction** (1 = first-try commit) — the fairness/
  starvation axis (E4's irrevocability story lives here);
* **latency** in logical time units (the shared history clock advances on
  every begin/end event) from first begin to final commit, including
  retries;
* **rule mix** — machine work decomposed by rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.errors import AbortKind
from repro.core.history import History, TxRecord, TxStatus
from repro.obs.metrics import HistogramMetric


@dataclass(frozen=True)
class Distribution:
    """Order statistics of a sample — a frozen *view* over
    :class:`repro.obs.metrics.HistogramMetric` (same nearest-rank
    percentile definition, see :func:`repro.obs.metrics.
    percentile_nearest_rank`, so the two can never disagree).

    p99/p999 ride along for latency-SLO style reporting; on the small
    samples the harness produces they usually coincide with ``maximum``,
    which is exactly what nearest-rank promises.
    """

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float
    p99: float = 0.0
    p999: float = 0.0

    @staticmethod
    def from_histogram(histogram: HistogramMetric) -> "Distribution":
        summary = histogram.summary()
        return Distribution(
            count=int(summary["count"]),
            mean=summary["mean"],
            p50=summary["p50"],
            p95=summary["p95"],
            maximum=summary["max"],
            p99=summary["p99"],
            p999=summary["p999"],
        )

    @staticmethod
    def of(samples: Sequence[float]) -> "Distribution":
        histogram = HistogramMetric("distribution")
        for sample in samples:
            histogram.observe(sample)
        return Distribution.from_histogram(histogram)

    def row(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} p50={self.p50:.0f} "
            f"p95={self.p95:.0f} p99={self.p99:.0f} max={self.maximum:.0f}"
        )


@dataclass
class RunMetrics:
    attempts: Distribution
    latency: Distribution
    cascade_ratio: float
    rule_mix: Dict[str, int]
    abort_kinds: Dict[str, int] = field(default_factory=dict)

    def report(self) -> str:
        lines = [
            f"attempts/tx : {self.attempts.row()}",
            f"latency     : {self.latency.row()}",
            f"cascades    : {self.cascade_ratio:.2%} of aborts",
            "rule mix    : "
            + "  ".join(f"{rule}={count}" for rule, count in sorted(self.rule_mix.items())),
        ]
        if self.abort_kinds:
            lines.append(
                "abort kinds : "
                + "  ".join(
                    f"{kind}={count}" for kind, count in sorted(self.abort_kinds.items())
                )
            )
        return "\n".join(lines)


def _attempt_chains(history: History) -> List[List[TxRecord]]:
    """Group records into retry chains via ``retries_of`` links."""
    by_id = {record.tx_id: record for record in history.records}
    successor: Dict[int, int] = {}
    roots: List[TxRecord] = []
    for record in history.records:
        if record.retries_of is not None and record.retries_of in by_id:
            successor[record.retries_of] = record.tx_id
        else:
            roots.append(record)
    chains = []
    for root in roots:
        chain = [root]
        cursor = root.tx_id
        while cursor in successor:
            cursor = successor[cursor]
            chain.append(by_id[cursor])
        chains.append(chain)
    return chains


def summarize(history: History, rule_counts: Optional[Dict[str, int]] = None) -> RunMetrics:
    """Distributions for one harness run."""
    chains = _attempt_chains(history)
    attempt_counts: List[float] = []
    latencies: List[float] = []
    for chain in chains:
        final = chain[-1]
        if final.status is not TxStatus.COMMITTED:
            continue
        attempt_counts.append(float(len(chain)))
        if final.end_time is not None:
            latencies.append(float(final.end_time - chain[0].begin_time))
    aborted = history.aborted_records()
    cascades = sum(
        1 for record in aborted if record.abort_kind is AbortKind.CASCADE
    )
    kinds: Dict[str, int] = {}
    for record in aborted:
        label = record.abort_kind.value if record.abort_kind else "unknown"
        kinds[label] = kinds.get(label, 0) + 1
    return RunMetrics(
        attempts=Distribution.of(attempt_counts),
        latency=Distribution.of(latencies),
        cascade_ratio=(cascades / len(aborted)) if aborted else 0.0,
        rule_mix=dict(rule_counts or {}),
        abort_kinds=kinds,
    )
