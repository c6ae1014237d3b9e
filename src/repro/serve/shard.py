"""One shard of the ``repro serve`` daemon: a PUSH/PULL runtime behind a
work queue.

:class:`ShardState` is the synchronous, I/O-free core — it owns one
:class:`~repro.tm.base.Runtime` over a :class:`~repro.specs.product.
ProductSpec` of the four registered spec spaces and exposes exactly three
entry points:

* :meth:`ShardState.execute_wave` — a batch of *single-shard*
  transactions, run to commit-or-requeue through the normal
  :class:`~repro.tm.base.TxStepper` + scheduler machinery (the same
  machinery every experiment uses, so daemon traffic exercises the same
  code paths the checkers verify);
* :meth:`ShardState.prepare` / :meth:`ShardState.commit_prepared` /
  :meth:`ShardState.abort_prepared` — the participant half of the
  cross-shard 2PC.  *Prepare* APPs and PUSHes the sub-transaction's
  operations (encounter-style eager publication), fsyncs a ``prepare``
  record on a durable shard, and parks the thread; the global CMT rule
  is only fired by *commit*, so the paper's commit criteria are what
  make the second phase safe.  A parked prepared transaction's
  pushed-uncommitted entries block conflicting PUSHes on the shard via
  the ordinary push criterion — 2PC "locks" are just uncommitted
  global-log entries.  Every step is the runtime's lifecycle: prepare
  is ``Runtime.begin``, commit is ``Runtime.commit`` + ``end``, an abort
  is ``Runtime.abort`` + ``drop``.  The commit and abort records are
  appended without an fsync and ride the shard's next one: the
  coordinator's fsynced ``decide commit``, or recovery's presumed
  abort, already fixes the outcome;
* :meth:`ShardState.maybe_checkpoint` / :meth:`ShardState.run_conformance`
  — the existing chaos conformance gate (serializability / opacity /
  clean-aborts / quiescence) over the shard's committed history.  The
  daemon runs it *windowed*, as a separate ``checkpoint`` request after
  each wave's replies are written and before the next wave: at every
  quiescent wave boundary the gate runs over the commits since the last
  one and, when clean, the history rolls over into a
  :class:`~repro.core.spec.RebasedStateSpec` (``Runtime.rollover``, as
  in ``Runtime.maybe_compact``, but gated on a verified window rather
  than blind), so the global log a transaction PULLs from holds about
  one wave.  The gate never changes an outcome, so no reply waits for it.
  A durable shard checkpoints a rollover state once every
  ``conformance_window`` commits, so snapshots only ever hold verified
  states.  On failure the verdict goes sticky and the armed per-shard
  :class:`~repro.obs.flight.FlightRecorder` auto-dumps its black box.

The asyncio wrappers at the bottom (:func:`shard_server`,
:func:`run_shard_worker`) put a :class:`ShardState` behind a unix-socket
frame protocol so shards can run as separate *processes* — on a
multicore box N shard workers give real parallelism, which pure
in-process asyncio cannot (one GIL).  The daemon also drives ShardState
inline (same event loop) for tests and tiny tiers.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checking.tms2 import tms2_stats_snapshot
from repro.core.errors import TMAbort
from repro.core.history import TxRecord
from repro.core.language import call, tx
from repro.core.ops import intern_stats
from repro.faults.conformance import conformance_failures
from repro.faults.recovery import make_policy
from repro.obs.flight import FlightRecorder, maybe_dump
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.serve.framing import read_frame, write_frame
from repro.serve.sharding import make_shard_scheduler, shard_seed, validate_op
from repro.specs import BankSpec, CounterSpec, KVMapSpec, QueueSpec
from repro.specs.product import ProductSpec
from repro.tm import ALL_ALGORITHMS
from repro.tm.base import Runtime, StepStatus, TxStepper


def make_serve_spec() -> ProductSpec:
    """The key-space every shard serves: one ProductSpec over the four
    registered spec spaces (cross-component operations always commute,
    so kvmap traffic never conflicts with bank traffic)."""
    return ProductSpec(
        {
            "kvmap": KVMapSpec(),
            "counter": CounterSpec(),
            "bank": BankSpec(),
            "queue": QueueSpec(),
        }
    )


@dataclass(frozen=True)
class ShardConfig:
    """Everything a shard needs, JSON-safe so it crosses the process
    boundary to :func:`run_shard_worker` unchanged."""

    index: int = 0
    shards: int = 1
    strategy: str = "encounter"
    scheduler: str = "random"
    root_seed: int = 0
    #: in-wave TxStepper retries before the txn is bounced back to the
    #: queue (a requeue lets parked 2PC commits land in between).  Sized
    #: for the worst case of a whole batch contending on one hot key:
    #: the loser of every round must survive ~batch aborts to serialize.
    wave_retries: int = 64
    #: total waves a txn may be requeued before a permanent abort reply
    max_attempts: int = 25
    #: commits between durable snapshots of a verified rollover state
    #: (the conformance gate and the in-memory rollover run at every
    #: quiescent wave boundary regardless); bounds the WAL tail a
    #: recovery replays
    conformance_window: int = 64
    flight_dir: Optional[str] = None
    #: segment directory for the durable global log (None = in-memory
    #: only, the pre-durability behaviour)
    durable_dir: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "shards": self.shards,
            "strategy": self.strategy,
            "scheduler": self.scheduler,
            "root_seed": self.root_seed,
            "wave_retries": self.wave_retries,
            "max_attempts": self.max_attempts,
            "conformance_window": self.conformance_window,
            "flight_dir": self.flight_dir,
            "durable_dir": self.durable_dir,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardConfig":
        return cls(**data)


@dataclass
class WaveOutcome:
    """Per-transaction result of one :meth:`ShardState.execute_wave`."""

    txn_id: str
    ok: bool
    results: Tuple[Any, ...] = ()
    retry: bool = False
    error: Optional[str] = None
    kind: Optional[str] = None
    attempts: int = 1

    def to_reply(self) -> Dict[str, Any]:
        if self.ok:
            return {"ok": True, "results": list(self.results)}
        return {"ok": False, "error": self.error, "kind": self.kind}


class ShardState:
    """One shard's transactional core (synchronous; see module doc)."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.tracer = (
            FlightRecorder(auto_dump_dir=config.flight_dir)
            if config.flight_dir
            else NULL_TRACER
        )
        # compact_every=None: compaction happens only through the
        # *verified* windowed-conformance rollover below, never blind.
        self.runtime = Runtime(
            make_serve_spec(), compact_every=None, tracer=self.tracer
        )
        self.algorithm = ALL_ALGORITHMS[config.strategy]()
        self.scheduler = make_shard_scheduler(
            config.scheduler, config.root_seed, config.index
        )
        self.recovery = make_policy("default", seed=shard_seed(config.root_seed, config.index))
        self.registry = MetricsRegistry()
        #: attached :class:`~repro.durable.store.SegmentStore`, or None.
        #: Construction never opens it — ``repro.durable.recovery.
        #: open_durable_shard`` is the only place a store meets a shard,
        #: so a durable shard always recovers (and re-verifies) first.
        self.durable = None
        #: the last :class:`~repro.durable.recovery.RecoveryReport`
        self.last_recovery = None
        #: txn_id → (tid, history record, wire ops) for parked prepared
        #: sub-txns; the wire ops feed the durable commit record
        self.prepared: Dict[str, Tuple[int, TxRecord, List[List[Any]]]] = {}
        #: sticky per-shard conformance verdicts
        self.conformance_failure_log: List[str] = []
        self.flight_dumps: List[str] = []
        self.windows_checked = 0
        self.commits_gated = 0
        self._commits_since_check = 0
        self._commits_since_snapshot = 0
        self._job_counter = 0
        self._waves = 0

    # -- small helpers ---------------------------------------------------------

    def _program(self, ops: Sequence[Sequence]):
        calls = []
        for op in ops:
            space, method, args = validate_op(op)
            calls.append(call(f"{space}.{method}", *args))
        return tx(*calls)

    def _next_job(self) -> int:
        self._job_counter += 1
        return self._job_counter

    def _count(self, name: str, delta: int = 1) -> None:
        self.registry.counter(name).inc(delta)

    # -- single-shard waves -----------------------------------------------------

    def execute_wave(self, items: Sequence[Dict[str, Any]]) -> List[WaveOutcome]:
        """Run a batch of single-shard transactions through TxSteppers
        under the shard scheduler.  Each item is ``{"id", "ops",
        "attempts"}``; an item whose stepper exhausts its in-wave retries
        is *requeued* (``retry=True``) rather than aborted outright —
        bounded by ``max_attempts`` across waves — because the conflict
        may be with a parked prepared 2PC sub-transaction that can only
        resolve between waves."""
        rt = self.runtime
        self._waves += 1
        self._count("serve.waves")
        # A wave sharing the shard with parked prepared 2PC sub-txns is
        # *stalled*: conflicting steppers cannot win until phase 2 lands,
        # which only happens between waves.  Bail out of retries fast and
        # do not charge the wave against the requeue budget — otherwise a
        # slow coordinator starves every transaction behind its locks.
        stalled = bool(self.prepared)
        retries = min(self.config.wave_retries, 4) if stalled else self.config.wave_retries
        pairs: List[Tuple[Dict[str, Any], TxStepper]] = []
        outcomes: List[WaveOutcome] = []
        for item in items:
            attempts = int(item.get("attempts", 0)) + (0 if stalled else 1)
            try:
                program = self._program(item["ops"])
            except ValueError as exc:
                outcomes.append(
                    WaveOutcome(
                        item["id"], False, error=str(exc), kind="protocol",
                        attempts=attempts,
                    )
                )
                self._count("serve.txn.rejected")
                continue
            stepper = TxStepper(
                self.algorithm,
                rt,
                program,
                max_retries=retries,
                job_id=self._next_job(),
                recovery=self.recovery,
            )
            pairs.append(({**item, "attempts": attempts}, stepper))
        if pairs:
            self.scheduler.run([stepper for _item, stepper in pairs])
        committed = 0
        durable_batch: List[Tuple[Any, str, List, List]] = []
        for item, stepper in pairs:
            attempts = item["attempts"]
            if stepper.status is StepStatus.COMMITTED:
                results = tuple(op.ret for op in stepper.record.ops)
                outcomes.append(
                    WaveOutcome(
                        item["id"], True, results=results, attempts=attempts,
                    )
                )
                committed += 1
                if self.durable is not None:
                    durable_batch.append(
                        (stepper.record.end_time, item["id"],
                         [list(op) for op in item["ops"]], list(results))
                    )
                self._count("serve.txn.committed")
                self._count("serve.txn.wave_aborts", stepper.stats.aborts)
            else:
                # Permanently aborted within the wave: the stepper left the
                # rolled-back thread parked in the machine — drop it.
                if stepper.tid is not None:
                    rt.drop(stepper.tid)
                self._count("serve.txn.wave_aborts", stepper.stats.aborts)
                if attempts < self.config.max_attempts:
                    outcomes.append(
                        WaveOutcome(
                            item["id"], False, retry=True, attempts=attempts,
                            error="wave conflict", kind="conflict",
                        )
                    )
                    self._count("serve.txn.requeued")
                else:
                    outcomes.append(
                        WaveOutcome(
                            item["id"], False, attempts=attempts,
                            error=f"aborted after {attempts} waves",
                            kind="conflict",
                        )
                    )
                    self._count("serve.txn.aborted")
        self._commits_since_check += committed
        if durable_batch:
            # Group commit: one record per committed txn in history
            # commit order (end_time is the serialization order the
            # commit criteria certified), then a single fsync.  Acks
            # leave this method only after that fsync returns; it also
            # carries any earlier unsynced 2PC commit record, at a lower
            # LSN, so a txn that read a 2PC write is never durable
            # without it.
            for _when, txn_id, ops, results in sorted(
                durable_batch, key=lambda row: row[0]
            ):
                self.durable.append(
                    {"t": "commit", "txn": txn_id, "ops": ops,
                     "results": results}
                )
            self.durable.sync()
        return outcomes

    # -- 2PC participant half ---------------------------------------------------

    def prepare(self, txn_id: str, ops: Sequence[Sequence]) -> Dict[str, Any]:
        """Phase 1: APP + PUSH every operation of the sub-transaction,
        then park the thread with its effects *uncommitted* in the global
        log.  Success promises the later CMT cannot fail: criterion (ii)
        holds because everything is pushed, criterion (iii) because
        :meth:`Runtime.pull_relevant` only ever pulls committed entries."""
        rt = self.runtime
        if txn_id in self.prepared:
            return {"ok": False, "error": f"txn {txn_id!r} already prepared",
                    "kind": "protocol"}
        try:
            program = self._program(ops)
        except ValueError as exc:
            self._count("serve.txn.rejected")
            return {"ok": False, "error": str(exc), "kind": "protocol"}
        rt.machine, tid = rt.machine.spawn(program)
        record = rt.begin(tid, self._next_job())
        try:
            for call_node in self.algorithm.resolve_steps(program):
                keys = rt.spec.footprint(call_node.method, call_node.args)
                rt.pull_relevant(tid, keys)
                op = self.algorithm.app_call(rt, tid, 0)
                self.algorithm.push_op(rt, tid, op)
        except TMAbort as abort:
            rt.abort(tid, record, abort.reason, abort.kind)
            rt.drop(tid)
            self._count("serve.2pc.prepare_conflict")
            return {"ok": False, "error": abort.reason, "kind": abort.kind.value}
        results = [op.ret for op in rt.machine.thread(tid).local.own_ops()]
        self.prepared[txn_id] = (tid, record, [list(op) for op in ops])
        if self.durable is not None:
            # Persist the prepare *before* the ack: a coordinator that
            # hears "prepared" may decide commit, so this shard must
            # still know about the sub-txn after a crash.
            self.durable.append(
                {"t": "prepare", "txn": txn_id,
                 "ops": [list(op) for op in ops], "results": list(results)}
            )
            self.durable.sync()
        self.registry.gauge("serve.prepared").set(len(self.prepared))
        self._count("serve.2pc.prepared")
        return {"ok": True, "results": results}

    def commit_prepared(self, txn_id: str) -> Dict[str, Any]:
        """Phase 2 (commit): fire CMT on the parked thread."""
        rt = self.runtime
        entry = self.prepared.pop(txn_id, None)
        if entry is None:
            return {"ok": False, "error": f"txn {txn_id!r} not prepared",
                    "kind": "protocol"}
        tid, record, wire_ops = entry
        rt.commit(tid, record)
        rt.end(tid)
        if self.durable is not None:
            # No sync: the prepare and the coordinator's ``decide commit``
            # are already fsynced, so a crash that loses this record
            # leaves an in-doubt prepare that recovery commits from the
            # decision log.  The record rides the shard's next fsync,
            # which every later durable record of the shard waits for.
            self.durable.append(
                {"t": "commit", "txn": txn_id, "ops": wire_ops,
                 "results": [op.ret for op in record.ops],
                 "via": "2pc"}
            )
        self.registry.gauge("serve.prepared").set(len(self.prepared))
        self._count("serve.2pc.committed")
        self._commits_since_check += 1
        return {"ok": True}

    def abort_prepared(self, txn_id: str, reason: str = "coordinator abort") -> Dict[str, Any]:
        """Phase 2 (abort): roll the parked thread back and discard it."""
        rt = self.runtime
        entry = self.prepared.pop(txn_id, None)
        if entry is None:
            return {"ok": False, "error": f"txn {txn_id!r} not prepared",
                    "kind": "protocol"}
        tid, record, _wire_ops = entry
        rt.abort(tid, record, reason)
        rt.drop(tid)
        if self.durable is not None:
            # No sync: aborts are advisory (recovery presumes abort for
            # any undecided prepare), so they ride the next batch.
            self.durable.append(
                {"t": "abort", "txn": txn_id, "reason": reason}
            )
        self.registry.gauge("serve.prepared").set(len(self.prepared))
        self._count("serve.2pc.aborted")
        return {"ok": True}

    # -- conformance gate + verified rollover -----------------------------------

    def maybe_checkpoint(self) -> Optional[Dict[str, Any]]:
        """At a quiescent wave boundary — something committed since the
        last rollover, no parked 2PC sub-txn, no live thread — run the
        windowed conformance gate and, when clean, roll the verified
        history over into a rebased spec.  Rolling over every such wave
        keeps the global log about one wave long, so PULLs and the
        criteria's log replays cost O(wave), not O(uptime).  Each gate
        that runs, with its rollover and any snapshot, is timed into
        ``serve.checkpoint.us``."""
        if not self._commits_since_check:
            return None
        if self.prepared or self.runtime.active_tids:
            return None
        started = time.perf_counter()
        verdict = self.run_conformance(rollover=True)
        self.registry.histogram("serve.checkpoint.us").observe(
            (time.perf_counter() - started) * 1e6
        )
        return verdict

    def run_conformance(
        self, rollover: bool = False, snapshot: bool = False
    ) -> Dict[str, Any]:
        """Run the chaos conformance gate over the current history window.
        Returns a JSON-safe verdict; on failure arms the flight dump.
        ``snapshot`` makes a clean rollover checkpoint a durable shard
        even before ``conformance_window`` commits have accumulated."""
        rt = self.runtime
        # The gate's own share of the process-wide ``opacity.tms2.*``
        # counters, under this shard's registry (and so its label).
        before = tms2_stats_snapshot()
        failures = conformance_failures(self.algorithm, rt.spec, rt)
        for name, value in tms2_stats_snapshot().items():
            self._count(name, value - before[name])
        window_commits = rt.history.commit_count()
        self.windows_checked += 1
        self.commits_gated += window_commits
        verdict = {
            "ok": not failures,
            "shard": self.config.index,
            "window_commits": window_commits,
            "windows_checked": self.windows_checked,
            "commits_gated": self.commits_gated,
            "failures": [str(f) for f in failures],
            "sticky_failures": list(self.conformance_failure_log),
        }
        self._count("serve.conformance.windows")
        if failures:
            self.conformance_failure_log.extend(str(f) for f in failures)
            verdict["sticky_failures"] = list(self.conformance_failure_log)
            self._count("serve.conformance.failures", len(failures))
            dump = maybe_dump(
                self.tracer,
                label=f"serve-shard{self.config.index}",
                reason="conformance",
                meta={"failures": [str(f) for f in failures]},
            )
            if dump:
                self.flight_dumps.append(dump)
                verdict["flight_dump"] = dump
            return verdict
        if rollover:
            self._rollover(snapshot)
        return verdict

    def _rollover(self, snapshot: bool = False) -> None:
        """:meth:`Runtime.rollover` onto the verified committed state, then
        restart with an empty history — only ever after a clean gate.  A
        durable shard also checkpoints the rebased state once
        ``conformance_window`` commits have accumulated since its last
        snapshot (or when ``snapshot`` asks): one snapshot fsync per window
        of commits, however many waves it took."""
        rt = self.runtime
        if not rt.rollover():
            return
        rt.history = type(rt.history)()
        self._commits_since_snapshot += self._commits_since_check
        self._commits_since_check = 0
        self._count("serve.conformance.rollovers")
        if self.durable is not None and (
            snapshot
            or self._commits_since_snapshot >= self.config.conformance_window
        ):
            # The rollover state was just verified by the gate — exactly
            # what a recovery wants to start from.  Checkpoint it and let
            # the store drop the segments it covers.
            from repro.durable.records import encode_state

            self._commits_since_snapshot = 0
            self.durable.write_snapshot(
                encode_state(rt.spec.initial_state()),
                meta={
                    "shard": self.config.index,
                    "strategy": self.config.strategy,
                    "windows_checked": self.windows_checked,
                    "commits_gated": self.commits_gated,
                },
            )

    # -- introspection ----------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        self.registry.gauge("serve.machine.threads").set(len(self.runtime.machine.threads))
        self.registry.gauge("serve.prepared").set(len(self.prepared))
        # The process-wide intern tables: the one structure that still
        # grows with the distinct payloads a shard has served.
        for name, size in intern_stats().items():
            self.registry.gauge(name).set(size)
        return {
            "counters": dict(self.registry.counter_values()),
            "gauges": {
                name: metric.value
                for (name, _labels), metric in self.registry._gauges.items()
            },
            # Raw samples, not summaries: the daemon merges them into its
            # own registry so percentiles aggregate correctly across the
            # process boundary (serve.fsync.us lives shard-side).
            "histograms": {
                name: list(metric.samples)
                for (name, _labels), metric in self.registry._histograms.items()
            },
        }

    def stats(self) -> Dict[str, Any]:
        rt = self.runtime
        return {
            "shard": self.config.index,
            "strategy": self.config.strategy,
            "waves": self._waves,
            "window_commits": rt.history.commit_count(),
            "commits_gated": self.commits_gated,
            "windows_checked": self.windows_checked,
            "prepared": len(self.prepared),
            "threads": len(rt.machine.threads),
            "global_log": len(rt.machine.global_log),
            "conformance_failures": list(self.conformance_failure_log),
            "flight_dumps": list(self.flight_dumps),
            "durable": {
                "directory": self.durable.directory,
                "last_lsn": self.durable.last_lsn,
                "segments": len(self.durable.segment_paths()),
                "recovery": self.last_recovery.to_dict()
                if self.last_recovery is not None
                else None,
            }
            if self.durable is not None
            else None,
        }


# -- process-mode wrapper: ShardState behind a unix-socket frame server --------


async def shard_server(state: ShardState, socket_path: str) -> None:
    """Serve one ShardState over a unix socket speaking the frame
    protocol.  One request frame in, one reply frame out; requests are
    processed strictly in arrival order per connection (the daemon opens
    a single connection per shard, so the shard's arrival order *is* the
    daemon's dispatch order — determinism is preserved across the
    process boundary)."""
    loop = asyncio.get_running_loop()
    stop = loop.create_future()

    async def handle(reader, writer):
        try:
            while True:
                request = await read_frame(reader)
                if request is None:
                    break
                reply = handle_shard_request(state, request)
                await write_frame(writer, reply)
                if request.get("method") == "shutdown" and not stop.done():
                    stop.set_result(None)
                    break
        finally:
            writer.close()

    server = await asyncio.start_unix_server(handle, path=socket_path)
    async with server:
        await stop


def handle_shard_request(state: ShardState, request: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch one shard RPC (shared by process mode and tests)."""
    method = request.get("method")
    rid = request.get("id")
    try:
        if method == "wave":
            outcomes = state.execute_wave(request["txns"])
            return {
                "id": rid,
                "ok": True,
                "outcomes": [
                    {
                        "id": o.txn_id,
                        "retry": o.retry,
                        "attempts": o.attempts,
                        **o.to_reply(),
                    }
                    for o in outcomes
                ],
            }
        if method == "checkpoint":
            return {"id": rid, "ok": True, "checkpoint": state.maybe_checkpoint()}
        if method == "prepare":
            return {"id": rid, **state.prepare(request["txn"], request["ops"])}
        if method == "commit":
            return {"id": rid, **state.commit_prepared(request["txn"])}
        if method == "abort":
            return {"id": rid, **state.abort_prepared(
                request["txn"], request.get("reason", "coordinator abort"))}
        if method == "conformance":
            return {"id": rid, **state.run_conformance(
                rollover=bool(request.get("rollover", False)))}
        if method == "metrics":
            return {"id": rid, "ok": True, "metrics": state.metrics_snapshot()}
        if method == "stats":
            return {"id": rid, "ok": True, "stats": state.stats()}
        if method == "shutdown":
            return {"id": rid, "ok": True}
        return {"id": rid, "ok": False, "error": f"unknown shard method {method!r}",
                "kind": "protocol"}
    except Exception as exc:  # noqa: BLE001 - shard must answer, not die
        return {"id": rid, "ok": False, "error": f"{type(exc).__name__}: {exc}",
                "kind": "internal"}


def run_shard_worker(config_dict: Dict[str, Any], socket_path: str) -> None:
    """Process entry point (multiprocessing target): build the shard and
    serve it on ``socket_path`` until a shutdown request.  A configured
    ``durable_dir`` routes construction through the recovery path, so a
    restarted worker replays and re-verifies its log before serving."""
    config = ShardConfig.from_dict(config_dict)
    if config.durable_dir:
        from repro.durable.recovery import open_durable_shard

        state = open_durable_shard(config)
    else:
        state = ShardState(config)
    try:
        asyncio.run(shard_server(state, socket_path))
    finally:
        if state.durable is not None:
            state.durable.close()
