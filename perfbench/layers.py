"""Per-layer metrics from the spans of a traced run.

Every function takes the spans recorded in one process (see
:mod:`perfbench.tracing`) and returns ``{metric: (value, unit, note)}``.
A metric whose layer did no work in the window is 0 (the serve layers on
``mc-sweep``, the model-checker layers on ``kv-durable-open``); a
percentile the sample does not support is 0 with a note giving the count.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from perfbench.stats import percentile
from perfbench.tracing import Span, self_times

Metric = Tuple[float, str, str]

RULES = ("app", "unapp", "push", "unpush", "pull", "unpull", "cmt")


def _dur(span: Span) -> float:
    return span[2] - span[1]


def _pct(samples: Sequence[float], q: float, unit: str) -> Metric:
    found = percentile(samples, q)
    return (found.value or 0.0, unit, found.describe(unit))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _group(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    by: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by[span[0]].append(span)
    return by


def coverage(spans: Sequence[Span], cpu_s: float) -> Metric:
    """Share of the process's CPU time spent inside top-level spans."""
    inside = sum(span[6] for span in spans if span[3] < 0)
    return (_ratio(inside, cpu_s), "ratio", f"{inside:.3f} s of {cpu_s:.3f} s CPU in top-level spans")


def self_time_by_name(spans: Sequence[Span], window: Tuple[float, float]) -> Dict[str, float]:
    """Seconds of self time per span name, over spans starting in ``window``."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if window[0] <= span[1] <= window[1]:
            totals[span[0]] += own
    return dict(totals)


def serve_layers(
    spans: Sequence[Span],
    events: Sequence[Tuple[str, float, Any]],
    window: Tuple[float, float],
    committed: int,
    restart_spans: Sequence[Span] = (),
) -> Dict[str, Metric]:
    """Daemon-side layers of a serve workload, over the measured window."""
    t0, t1 = window
    kept = [span for span in spans if t0 <= span[1] <= t1]
    # parent indices refer to the full list; map them to names once
    names = [span[0] for span in spans]
    by = _group(kept)
    per_txn = max(committed, 1)
    m: Dict[str, Metric] = {}

    frames = by["serve.framing.encode_frame"]
    m["serve.framing.encode_us_per_txn"] = (sum(map(_dur, frames)) * 1e6 / per_txn, "us", f"{len(frames)} frames")
    m["serve.framing.bytes_per_txn"] = (sum(s[5] or 0 for s in frames) / per_txn, "B", "")

    put_at: Dict[Any, float] = {}
    for name, when, token in events:
        if name == "serve.daemon.inbox_put" and t0 <= when <= t1:
            put_at.setdefault(token, when)
    waves = sorted(
        (s for s in by["serve.daemon.shard_request"] if s[4] == "wave"), key=lambda s: s[1]
    )
    waits: List[float] = []
    for request in waves:
        for token in request[5] or ():
            if token in put_at:
                waits.append((request[1] - put_at.pop(token)) * 1e3)
    m["serve.daemon.inbox_wait_ms.p50"] = _pct(waits, 0.50, "ms")
    m["serve.daemon.inbox_wait_ms.p99"] = _pct(waits, 0.99, "ms")
    m["serve.daemon.txns_per_wave"] = (
        statistics.mean(len(s[5] or ()) for s in waves) if waves else 0.0, "count", f"{len(waves)} waves"
    )

    executed = by["serve.shard.execute_wave"]
    ok = sum(s[5]["ok"] for s in executed)
    aborts = sum(s[5]["aborts"] for s in executed)
    retries = sum(s[5]["retry"] for s in executed)
    m["serve.shard.wave_ms_per_txn"] = (sum(map(_dur, executed)) * 1e3 / per_txn, "ms", "")
    m["serve.shard.wave_ms.p99"] = _pct([_dur(s) * 1e3 for s in executed], 0.99, "ms")
    m["serve.shard.commits_per_attempt"] = (
        _ratio(ok, ok + aborts), "ratio", f"{ok} commits, {aborts} in-wave aborts"
    )
    m["serve.shard.requeues_per_txn"] = (retries / per_txn, "count", f"{retries} requeues")
    checkpoints = by["serve.shard.maybe_checkpoint"]
    busy = sum(map(_dur, by["serve.daemon.shard_request"]))
    m["serve.shard.checkpoint_ms.p99"] = _pct([_dur(s) * 1e3 for s in checkpoints], 0.99, "ms")
    m["serve.shard.checkpoint_share"] = (
        _ratio(sum(map(_dur, checkpoints)), busy), "ratio", "of shard request time"
    )
    m["serve.shard.prepare_ms.p50"] = _pct([_dur(s) * 1e3 for s in by["serve.shard.prepare"]], 0.50, "ms")
    m["serve.shard.commit_prepared_ms.p50"] = _pct(
        [_dur(s) * 1e3 for s in by["serve.shard.commit_prepared"]], 0.50, "ms"
    )

    applies: Dict[str, List[Span]] = defaultdict(list)
    for span in by["tm.base.apply"]:
        applies[str(span[4]).lower()].append(span)
    for rule in RULES:
        calls = applies.get(rule, [])
        m[f"tm.base.apply.{rule}.calls_per_txn"] = (len(calls) / per_txn, "count", "")
        m[f"tm.base.apply.{rule}.us_per_call"] = (
            statistics.mean(map(_dur, calls)) * 1e6 if calls else 0.0, "us", f"{len(calls)} calls"
        )

    lookups = len(by["core.spec.memo.left_mover_pid"]) + sum(
        1 for s in by["core.spec.memo.left_mover"]
        if s[3] < 0 or names[s[3]] != "core.spec.memo.left_mover_pid"
    )
    evals = by["core.spec.left_mover"]
    m["core.spec.mover.lookups_per_txn"] = (lookups / per_txn, "count", f"{lookups} lookups")
    m["core.spec.mover.evals_per_txn"] = (len(evals) / per_txn, "count", f"{len(evals)} evaluations")
    m["core.spec.mover.hit_ratio"] = (1.0 - _ratio(len(evals), lookups) if lookups else 0.0, "ratio", "")
    m["core.spec.mover.eval_share"] = (
        _ratio(sum(map(_dur, evals)), sum(map(_dur, executed))), "ratio", "of execute_wave time"
    )
    m["core.spec.mover.eval_us.p99"] = _pct([_dur(s) * 1e6 for s in evals], 0.99, "us")

    gates = by["faults.conformance.run_conformance"]
    gate_ms = [_dur(s) * 1e3 for s in gates]
    m["faults.conformance.windows"] = (float(len(gates)), "count", "")
    m["faults.conformance.ms_per_window.p50"] = _pct(gate_ms, 0.50, "ms")
    m["faults.conformance.ms_per_window.max"] = (max(gate_ms, default=0.0), "ms", f"n={len(gate_ms)}")
    m["faults.conformance.commits_per_window"] = (
        statistics.mean(s[5] or 0 for s in gates) if gates else 0.0, "count", ""
    )

    fsyncs = [s for s in by["durable.store.sync"] if s[5]]
    records = sum(s[5] for s in fsyncs)
    m["durable.store.fsyncs_per_txn"] = (len(fsyncs) / per_txn, "count", f"{len(fsyncs)} fsyncs")
    m["durable.store.records_per_fsync"] = (_ratio(records, len(fsyncs)), "count", "")
    m["durable.store.sync_ms.p50"] = _pct([_dur(s) * 1e3 for s in fsyncs], 0.50, "ms")
    m["durable.store.sync_ms.p99"] = _pct([_dur(s) * 1e3 for s in fsyncs], 0.99, "ms")
    m["durable.store.bytes_per_txn"] = (
        sum(s[5] or 0 for s in by["durable.store.append"]) / per_txn, "B", ""
    )
    m["durable.store.snapshot_ms.p50"] = _pct(
        [_dur(s) * 1e3 for s in by["durable.store.write_snapshot"]], 0.50, "ms"
    )
    m["durable.store.compact_ms.p50"] = _pct([_dur(s) * 1e3 for s in by["durable.store.compact"]], 0.50, "ms")
    opens = [_dur(s) * 1e3 for s in restart_spans if s[0] == "durable.recovery.open_durable_shard"]
    m["durable.recovery.open_ms"] = (
        statistics.median(opens) if opens else 0.0, "ms", f"median of {len(opens)} shard opens"
    )
    return m


def mc_layers(sweeps: Sequence[Dict[str, Any]], spans_by_sweep: Sequence[Sequence[Span]]) -> Dict[str, Metric]:
    """Model-checker layers over the run's sweeps (exact counts from the
    explorer's reports, times from the kernel and reducer spans)."""
    m: Dict[str, Metric] = {}
    for mode, por in (("por_off", False), ("por_on", True)):
        first = next(sweep for sweep in sweeps if sweep["por"] is por)
        states = sum(c["states"] for c in first["scopes"].values())
        transitions = sum(c["transitions"] for c in first["scopes"].values())
        dedup = sum(c["dedup_hits"] for c in first["scopes"].values())
        m[f"checking.model_checker.states.{mode}"] = (float(states), "count", "")
        m[f"checking.model_checker.transitions.{mode}"] = (float(transitions), "count", "")
        m[f"checking.model_checker.dedup_ratio.{mode}"] = (_ratio(dedup, transitions), "ratio", "")

    def layer(name: str, por: bool) -> Tuple[float, float, float]:
        spent = explored = states = 0.0
        for sweep, spans in zip(sweeps, spans_by_sweep):
            if sweep["por"] is not por:
                continue
            spent += sum(_dur(s) for s in spans if s[0] == name)
            explored += sum(_dur(s) for s in spans if s[0] == "checking.model_checker.explore")
            states += sum(c["states"] for c in sweep["scopes"].values())
        return spent, explored, states

    spent, explored, states = layer("core.machine.successor_keys", False)
    m["core.machine.successor_keys.us_per_state"] = (_ratio(spent * 1e6, states), "us", "POR off")
    m["core.machine.successor_keys.share"] = (_ratio(spent, explored), "ratio", "of POR-off exploration time")
    spent, explored, states = layer("checking.reduction.canonical", True)
    m["checking.reduction.canonical.us_per_state"] = (_ratio(spent * 1e6, states), "us", "POR on")
    m["checking.reduction.canonical.share"] = (_ratio(spent, explored), "ratio", "of POR-on exploration time")
    spent, explored, states = layer("checking.reduction.ample_tid", True)
    m["checking.reduction.ample_tid.us_per_state"] = (_ratio(spent * 1e6, states), "us", "POR on")
    return m


def generator_layers(late_ms: Sequence[float], inflight_max: int) -> Dict[str, Metric]:
    """How faithfully the open-loop generator kept its schedule."""
    return {
        "bench.gen.late_ms.p99": _pct(late_ms, 0.99, "ms"),
        "bench.gen.inflight.max": (float(inflight_max), "count", ""),
    }

