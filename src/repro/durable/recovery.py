"""Crash recovery: replay a segment directory into a live ShardState.

The replay is *not* a bespoke state-patching routine — it drives the
recovered records through the shard's own prepare/commit entry points,
so every recovered transaction re-executes APP, PUSH and CMT under the
machine's rules and the push/pull commit criteria re-adjudicate it.
That is sound because commit records are persisted in shard commit
order and the paper's commit criteria make commit order a valid
serialization (Theorem 5.17's mover argument): replaying the commits
sequentially is one of the interleavings the criteria already proved
equivalent to the original concurrent run.

Three oracles gate a recovery before the shard is allowed to serve:

1. **divergence** — each replayed transaction's return values must equal
   the recorded (acknowledged) results byte for byte;
2. **windowed conformance** — the replay reuses the shard's own
   ``maybe_checkpoint`` rollover after every replayed commit, so the log
   is re-verified window by window like live traffic (and memory stays
   bounded);
3. **the final gate** — after in-doubt resolution the full conformance
   check (serializability / opacity / clean aborts) must pass, and its
   rollover writes a fresh snapshot so the next recovery is cheap.

In-doubt 2PC sub-transactions (a persisted ``prepare`` with neither
``commit`` nor ``abort`` after it) are resolved from the coordinator's
decision log (the sibling ``coord`` directory): a logged ``commit``
decision commits them, anything else is **presumed abort** — the
coordinator only acks a cross-shard transaction after its decision
record is fsync'd, so an unlogged decision was never acknowledged.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.durable.inspect import read_directory_records
from repro.durable.records import DurableError, decode_state
from repro.durable.store import SegmentStore
from repro.obs.metrics import MetricsRegistry


class RecoveryError(DurableError):
    """The directory's records cannot be recovered to a verified state
    (divergence, conformance failure, or malformed log)."""


@dataclass
class RecoveryReport:
    """What one :func:`open_durable_shard` replay did, JSON-safe."""

    directory: str
    snapshot_watermark: int = 0
    records_scanned: int = 0
    replayed_commits: int = 0
    torn_tail_dropped: int = 0
    in_doubt: Dict[str, str] = field(default_factory=dict)
    conformance_ok: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "directory": self.directory,
            "snapshot_watermark": self.snapshot_watermark,
            "records_scanned": self.records_scanned,
            "replayed_commits": self.replayed_commits,
            "torn_tail_dropped": self.torn_tail_dropped,
            "in_doubt": dict(self.in_doubt),
            "conformance_ok": self.conformance_ok,
        }


def load_decisions(coord_dir: str) -> Dict[str, str]:
    """txn id → outcome from a coordinator decision log.  A missing
    directory is an empty decision set (presumed abort); refusal-grade
    corruption in the decision log propagates — guessing 2PC outcomes
    is how shards diverge."""
    if not os.path.isdir(coord_dir):
        return {}
    records, _watermark = read_directory_records(coord_dir)
    decisions: Dict[str, str] = {}
    for record in records:
        if record.get("t") == "decide":
            decisions[str(record.get("txn"))] = str(record.get("outcome"))
    return decisions


def _canon(value: Any) -> Any:
    """JSON-normalised comparison form (tuples become lists, like the
    wire did to the recorded results)."""
    return json.loads(json.dumps(value))


def open_durable_shard(
    config: "ShardConfig",
    *,
    registry: Optional[MetricsRegistry] = None,
    segment_bytes: Optional[int] = None,
    coord_dir: Optional[str] = None,
) -> "ShardState":
    """Open ``config.durable_dir``, recover it, and return a verified,
    durably-attached :class:`~repro.serve.shard.ShardState` ready to
    serve.  Raises :class:`~repro.durable.records.SegmentCorruption` on
    refusal-grade damage and :class:`RecoveryError` when replay cannot
    be verified."""
    from repro.serve.shard import ShardConfig, ShardState  # noqa: F401

    directory = config.durable_dir
    if not directory:
        raise RecoveryError("config.durable_dir is not set")
    if registry is None:
        registry = MetricsRegistry()
    kwargs: Dict[str, Any] = {}
    if segment_bytes is not None:
        kwargs["segment_bytes"] = segment_bytes
    store = SegmentStore(directory, registry=registry, **kwargs)
    try:
        state = ShardState(config)
        # one registry for shard and store, so the durable.* counters and
        # fsync histograms ride the shard's metrics_snapshot to the daemon
        state.registry = registry
        report = RecoveryReport(
            directory=directory,
            records_scanned=len(store.recovered_records),
            torn_tail_dropped=store.torn_tail_dropped,
        )
        if store.snapshot_doc is not None:
            report.snapshot_watermark = int(store.snapshot_doc.get("watermark", 0))
            _install_snapshot(state, store.snapshot_doc)
        _replay(state, store, report)
        # From here on the shard writes through the store: in-doubt
        # resolutions below are live commits/aborts and must be logged.
        state.durable = store
        _resolve_in_doubt(
            state,
            report,
            coord_dir
            if coord_dir is not None
            else os.path.join(os.path.dirname(directory.rstrip(os.sep)), "coord"),
        )
        verdict = state.run_conformance(rollover=True, snapshot=True)
        report.conformance_ok = bool(verdict.get("ok"))
        if not report.conformance_ok or verdict.get("sticky_failures"):
            raise RecoveryError(
                "recovered history failed the conformance gate: "
                f"{verdict.get('failures') or verdict.get('sticky_failures')}"
            )
        state.last_recovery = report
        return state
    except Exception:
        store.crash()
        raise


def _install_snapshot(state, snapshot_doc) -> None:
    """Rebase the fresh shard onto the checkpointed spec state through
    ``Runtime.rebase`` — the persistent twin of ``ShardState._rollover``."""
    try:
        snap_state = decode_state(snapshot_doc["state"])
    except (KeyError, DurableError) as exc:
        raise RecoveryError(f"snapshot state does not decode: {exc}")
    state.runtime.rebase(snap_state)


def _replay(state, store: SegmentStore, report: RecoveryReport) -> None:
    """Drive every scanned record back through the shard entry points.
    ``state.durable`` is still ``None`` here — replay must not re-log."""
    watermark = report.snapshot_watermark
    last_lsn = watermark
    parked: Dict[str, None] = {}
    for record in store.recovered_records:
        lsn = int(record.get("lsn", 0))
        if lsn <= watermark:
            # survivors of a crash between snapshot write and compaction
            continue
        if lsn <= last_lsn:
            raise RecoveryError(
                f"lsn {lsn} out of order after {last_lsn} — segment files "
                "are inconsistent"
            )
        last_lsn = lsn
        kind = record.get("t")
        txn = str(record.get("txn"))
        if kind == "prepare":
            _replay_prepare(state, txn, record)
            parked[txn] = None
        elif kind == "commit":
            if txn in parked:
                parked.pop(txn)
                reply = state.commit_prepared(txn)
                if not reply.get("ok"):
                    raise RecoveryError(
                        f"replay of 2pc commit {txn!r} failed: {reply.get('error')}"
                    )
            else:
                _replay_prepare(state, txn, record)
                reply = state.commit_prepared(txn)
                if not reply.get("ok"):
                    raise RecoveryError(
                        f"replay of commit {txn!r} failed: {reply.get('error')}"
                    )
            report.replayed_commits += 1
            # windowed re-verification + in-memory rollover, one replayed
            # commit per window (the log records no wave boundaries)
            checkpoint = state.maybe_checkpoint()
            if checkpoint is not None and not checkpoint.get("ok"):
                raise RecoveryError(
                    "replay window failed the conformance gate: "
                    f"{checkpoint.get('failures')}"
                )
        elif kind == "abort":
            if txn in parked:
                parked.pop(txn)
                state.abort_prepared(
                    txn, str(record.get("reason", "logged abort"))
                )
        elif kind == "decide":
            continue  # coordinator-log record; inert in a shard log
        else:
            raise RecoveryError(f"unknown record type {kind!r} at lsn {lsn}")


def _replay_prepare(state, txn: str, record: Dict[str, Any]) -> None:
    reply = state.prepare(txn, record.get("ops", []))
    if not reply.get("ok"):
        raise RecoveryError(
            f"replay of {txn!r} aborted ({reply.get('error')}) — the live "
            "run committed it, so the recovered machine diverged"
        )
    recorded = record.get("results")
    if recorded is not None and _canon(reply.get("results")) != _canon(recorded):
        state.abort_prepared(txn, "recovery divergence")
        raise RecoveryError(
            f"replay divergence on {txn!r}: recomputed results "
            f"{reply.get('results')!r} != recorded {recorded!r}"
        )


def _resolve_in_doubt(state, report: RecoveryReport, coord_dir: str) -> None:
    """Every still-parked prepare is in doubt; consult the coordinator
    decision log, presume abort otherwise.  Runs with the store attached
    so each resolution is itself persisted."""
    if not state.prepared:
        return
    decisions = load_decisions(coord_dir)
    for txn in sorted(state.prepared):
        outcome = decisions.get(txn)
        if outcome == "commit":
            reply = state.commit_prepared(txn)
            if not reply.get("ok"):
                raise RecoveryError(
                    f"in-doubt commit of {txn!r} failed: {reply.get('error')}"
                )
            report.in_doubt[txn] = "commit"
        else:
            state.abort_prepared(txn, "presumed abort after recovery")
            report.in_doubt[txn] = "abort"
    if state.durable is not None:
        state.durable.sync()
