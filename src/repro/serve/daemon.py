"""The ``repro serve`` daemon: a TCP gateway over N shard runtimes.

Topology::

    client ──TCP──▶ gateway (asyncio)
                      │  hash-route (sharding.op_shard)
                      ├─ inbox[0] ─▶ shard worker 0 ─▶ ShardState 0
                      ├─ inbox[1] ─▶ shard worker 1 ─▶ ShardState 1
                      └─ ...          (inline coroutine or forked process)

* **Single-shard transactions** ride a bounded per-shard inbox
  (``asyncio.Queue(maxsize=inbox)``).  The connection handler *awaits*
  the put — a full inbox suspends that connection's read loop, TCP flow
  control pushes back to the client, and the daemon's memory stays
  bounded no matter how hard an open-loop generator drives it (the
  backpressure property ``tests/test_serve_daemon.py`` pins down).
  Workers drain up to ``batch`` transactions per wave and run them
  through the shard's TxStepper + scheduler machinery (the ``wave``
  request; on a durable shard it returns after the wave's fsync).  The
  worker resolves the wave's replies, yields once so they are written,
  and only then sends the shard a ``checkpoint`` request: the windowed
  conformance gate and verified rollover never change an outcome, so
  they run off the ack path but still before the next wave.  A failing
  verdict counts in ``serve.conformance.failures`` and goes sticky.

* **Cross-shard transactions** run a deterministic 2PC: the coordinator
  prepares on every participant (ascending shard order), then commits in
  :func:`~repro.serve.sharding.commit_order` — a pure function of
  ``(root seed, txn id)``, never of prepare-response timing.  A prepare
  conflict aborts the prepared participants and retries the whole round
  under the shared :mod:`repro.faults.recovery` policy (seeded backoff,
  the same contract chaos runs use), bounded by ``cross_attempts``.
  Durably, an ack waits on the participants' ``prepare`` fsyncs, one
  after another, then the coordinator's ``decide`` fsync (three in a row
  for two shards).  The participants' commit records ride their shards'
  next fsync: a crash that loses one leaves an in-doubt prepare, which
  recovery commits from the decision log.

* **Admin plane** (same frame protocol): ``ping``, ``stats``,
  ``metrics``, ``prometheus`` (the MetricsRegistry text exposition),
  ``conformance`` (fan the chaos gate out over every shard's committed
  history), ``pause``/``resume`` (test hook), ``shutdown``.

In ``process`` mode each shard is a forked worker speaking the same
frame protocol over a unix socket — N shards on N cores give real
parallelism.  ``inline`` mode keeps every shard on the gateway loop:
zero fork cost, perfect for tests and the ``--tiny`` CI tier.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.recovery import make_policy
from repro.obs.metrics import MetricsRegistry
from repro.serve.framing import FrameError, read_frame, write_frame
from repro.serve.shard import (
    ShardConfig,
    ShardState,
    handle_shard_request,
    run_shard_worker,
)
from repro.serve.sharding import ProtocolError, commit_order, op_shard, split_by_shard

_SHUTDOWN = object()


@dataclass(frozen=True)
class DaemonConfig:
    host: str = "127.0.0.1"
    port: int = 7411
    shards: int = 2
    strategy: str = "encounter"
    scheduler: str = "random"
    seed: int = 0
    mode: str = "inline"  # inline | process
    #: max transactions per shard wave
    batch: int = 32
    #: bound on each per-shard inbox (the backpressure knob)
    inbox: int = 256
    #: bound on concurrently coordinating cross-shard transactions
    cross_inflight: int = 16
    #: full 2PC rounds before a cross-shard txn aborts permanently
    cross_attempts: int = 25
    wave_retries: int = 64
    max_attempts: int = 25
    #: commits per shard between durable snapshots (see ShardConfig)
    conformance_window: int = 64
    flight_dir: Optional[str] = None
    #: durability root: per-shard segment stores live in
    #: ``<durable>/shard-NNN``, the 2PC decision log in
    #: ``<durable>/coord``.  None = in-memory only.
    durable: Optional[str] = None

    def shard_config(self, index: int) -> ShardConfig:
        return ShardConfig(
            index=index,
            shards=self.shards,
            strategy=self.strategy,
            scheduler=self.scheduler,
            root_seed=self.seed,
            wave_retries=self.wave_retries,
            max_attempts=self.max_attempts,
            conformance_window=self.conformance_window,
            flight_dir=self.flight_dir,
            durable_dir=os.path.join(self.durable, f"shard-{index:03d}")
            if self.durable
            else None,
        )


class InlineShard:
    """A ShardState driven directly on the gateway loop."""

    def __init__(self, config: ShardConfig) -> None:
        if config.durable_dir:
            from repro.durable.recovery import open_durable_shard

            self.state = open_durable_shard(config)
        else:
            self.state = ShardState(config)

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return handle_shard_request(self.state, message)

    async def close(self) -> None:
        if self.state.durable is not None:
            self.state.durable.close()


class ProcessShard:
    """A shard worker in a forked process behind a unix socket.

    One connection, strictly request→reply under a lock, so the shard's
    arrival order is exactly the gateway's dispatch order."""

    def __init__(self, config: ShardConfig, socket_dir: str) -> None:
        self.config = config
        self.socket_path = os.path.join(socket_dir, f"shard-{config.index}.sock")
        self._process = None
        self._reader = None
        self._writer = None
        self._lock = asyncio.Lock()

    async def start(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._process = ctx.Process(
            target=run_shard_worker,
            args=(self.config.to_dict(), self.socket_path),
            daemon=True,
        )
        self._process.start()
        for _ in range(200):
            try:
                self._reader, self._writer = await asyncio.open_unix_connection(
                    self.socket_path
                )
                return
            except (ConnectionRefusedError, FileNotFoundError):
                await asyncio.sleep(0.05)
        raise RuntimeError(
            f"shard {self.config.index} worker did not come up on {self.socket_path}"
        )

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        async with self._lock:
            await write_frame(self._writer, message)
            reply = await read_frame(self._reader)
        if reply is None:
            raise RuntimeError(f"shard {self.config.index} worker closed the socket")
        return reply

    async def close(self) -> None:
        try:
            if self._writer is not None:
                await self.request({"id": "shutdown", "method": "shutdown"})
                self._writer.close()
        except (RuntimeError, ConnectionError, FrameError):
            pass
        if self._process is not None:
            self._process.join(timeout=5)
            if self._process.is_alive():  # pragma: no cover - stuck worker
                self._process.terminate()


class Daemon:
    """Gateway + shard workers; see module docstring."""

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        self.backends: List[Any] = []
        self.inboxes: List[asyncio.Queue] = []
        self.inbox_peaks: List[int] = []
        self._pause: List[asyncio.Event] = []
        self._workers: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._socket_dir: Optional[tempfile.TemporaryDirectory] = None
        self._txn_seq = itertools.count(1)
        self._cross_sem: Optional[asyncio.Semaphore] = None
        self._cross_recovery = make_policy("default", seed=config.seed)
        self._stopping: Optional[asyncio.Future] = None
        self._connections = 0
        #: 2PC decision log (SegmentStore on <durable>/coord) + the
        #: root-directory lock that makes two daemons on one durability
        #: root fail fast instead of fighting over shard locks
        self._coord = None
        self._durable_lock = None

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        config = self.config
        self._stopping = asyncio.get_running_loop().create_future()
        self._cross_sem = asyncio.Semaphore(config.cross_inflight)
        if config.durable:
            from repro.durable.store import DirLock, SegmentStore

            os.makedirs(config.durable, exist_ok=True)
            self._durable_lock = DirLock(config.durable).acquire()
            self._coord = SegmentStore(
                os.path.join(config.durable, "coord"), registry=self.registry
            )
        if config.mode == "process":
            self._socket_dir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            for i in range(config.shards):
                backend = ProcessShard(config.shard_config(i), self._socket_dir.name)
                await backend.start()
                self.backends.append(backend)
        else:
            for i in range(config.shards):
                self.backends.append(InlineShard(config.shard_config(i)))
        for i in range(config.shards):
            self.inboxes.append(asyncio.Queue(maxsize=config.inbox))
            self.inbox_peaks.append(0)
            event = asyncio.Event()
            event.set()
            self._pause.append(event)
            self._workers.append(asyncio.ensure_future(self._shard_worker(i)))
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port
        )

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        await self._stopping

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        for backend in self.backends:
            await backend.close()
        if self._coord is not None:
            self._coord.close()
            self._coord = None
        if self._durable_lock is not None:
            self._durable_lock.release()
            self._durable_lock = None
        if self._socket_dir is not None:
            self._socket_dir.cleanup()
        if self._stopping is not None and not self._stopping.done():
            self._stopping.set_result(None)

    # -- shard workers ----------------------------------------------------------

    async def _shard_worker(self, index: int) -> None:
        backend = self.backends[index]
        queue = self.inboxes[index]
        carry: List[Dict[str, Any]] = []
        while True:
            await self._pause[index].wait()
            items = carry
            carry = []
            if not items:
                item = await queue.get()
                if item is _SHUTDOWN:
                    return
                items.append(item)
            while len(items) < self.config.batch:
                try:
                    more = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if more is _SHUTDOWN:
                    return
                items.append(more)
            # Re-check the pause gate: the worker may have been parked on
            # queue.get() when the pause landed, and a wave must never
            # start while the shard is administratively paused.
            await self._pause[index].wait()
            reply = await backend.request(
                {
                    "id": f"wave-{index}",
                    "method": "wave",
                    "txns": [
                        {"id": it["token"], "ops": it["ops"], "attempts": it["attempts"]}
                        for it in items
                    ],
                }
            )
            if not reply.get("ok"):
                for item in items:
                    item["future"].set_result(
                        {"ok": False, "error": reply.get("error", "shard failure"),
                         "kind": "internal"}
                    )
                continue
            by_token = {it["token"]: it for it in items}
            for outcome in reply["outcomes"]:
                item = by_token[outcome["id"]]
                if outcome.get("retry"):
                    item["attempts"] = outcome.get("attempts", item["attempts"] + 1)
                    carry.append(item)
                else:
                    item["future"].set_result(
                        {key: outcome[key]
                         for key in ("ok", "results", "error", "kind")
                         if key in outcome}
                    )
            # The outcomes are final and durable: yield once so the reply
            # tasks write them (and parked 2PC phase-2 messages land
            # before conflicting carry items retry), then run the gate
            # before the next wave.
            await asyncio.sleep(0)
            reply = await backend.request(
                {"id": f"checkpoint-{index}", "method": "checkpoint"}
            )
            checkpoint = reply.get("checkpoint")
            if checkpoint and not checkpoint.get("ok"):
                self.registry.counter("serve.conformance.failures").inc(
                    len(checkpoint.get("failures", ()))
                )

    # -- cross-shard 2PC --------------------------------------------------------

    async def _run_cross(self, routed: Dict[int, List], ops: Sequence[Sequence]) -> Dict[str, Any]:
        """Coordinate one cross-shard transaction; see module docstring."""
        config = self.config
        participants = sorted(routed)
        # Reassembly map: op position in the submitted txn → (shard, slot).
        slots: Dict[int, Tuple[int, int]] = {}
        counters = {shard: 0 for shard in participants}
        for position, op in enumerate(ops):
            shard = op_shard(op, config.shards)
            slots[position] = (shard, counters[shard])
            counters[shard] += 1
        job = next(self._txn_seq)
        try:
            for attempt in range(1, config.cross_attempts + 1):
                txn_id = f"x{job}.{attempt}"
                prepared: List[int] = []
                conflict: Optional[Dict[str, Any]] = None
                per_shard_results: Dict[int, List[Any]] = {}
                for shard in participants:
                    reply = await self.backends[shard].request(
                        {"id": txn_id, "method": "prepare",
                         "txn": txn_id, "ops": routed[shard]}
                    )
                    if reply.get("ok"):
                        prepared.append(shard)
                        per_shard_results[shard] = reply.get("results", [])
                    else:
                        conflict = reply
                        break
                if conflict is None:
                    if self._coord is not None:
                        # The 2PC decision point: once this record is
                        # fsync'd the transaction commits even if the
                        # daemon dies mid-phase-2 — recovering shards
                        # find their in-doubt prepares decided here.
                        self._coord.append(
                            {"t": "decide", "txn": txn_id,
                             "outcome": "commit",
                             "participants": list(participants)}
                        )
                        self._coord.sync()
                    order = commit_order(config.seed, txn_id, participants)
                    for shard in order:
                        await self.backends[shard].request(
                            {"id": txn_id, "method": "commit", "txn": txn_id}
                        )
                    self.registry.counter("serve.cross.committed").inc()
                    results = [
                        per_shard_results[shard][slot]
                        for _pos, (shard, slot) in sorted(slots.items())
                    ]
                    return {"ok": True, "results": results}
                if conflict.get("kind") == "protocol":
                    # Malformed sub-txn: nothing was prepared for it, but
                    # earlier participants were — roll those back.
                    for shard in commit_order(config.seed, txn_id, prepared):
                        await self.backends[shard].request(
                            {"id": txn_id, "method": "abort", "txn": txn_id,
                             "reason": "protocol error on sibling shard"}
                        )
                    self.registry.counter("serve.cross.rejected").inc()
                    return conflict
                if self._coord is not None and prepared:
                    # Advisory (recovery presumes abort for any undecided
                    # prepare), so no sync — it rides the next decision's
                    # batch and just keeps the decision log complete.
                    self._coord.append(
                        {"t": "decide", "txn": txn_id, "outcome": "abort",
                         "participants": list(prepared)}
                    )
                for shard in commit_order(config.seed, txn_id, prepared):
                    await self.backends[shard].request(
                        {"id": txn_id, "method": "abort", "txn": txn_id,
                         "reason": "2pc prepare conflict"}
                    )
                self.registry.counter("serve.cross.retries").inc()
                from repro.core.errors import AbortKind

                quanta, _escalate = self._cross_recovery.on_abort(
                    job, attempt, AbortKind.CONFLICT
                )
                await asyncio.sleep(min(quanta, 64) * 0.001)
            self.registry.counter("serve.cross.aborted").inc()
            return {
                "ok": False,
                "error": f"cross-shard txn aborted after {config.cross_attempts} rounds",
                "kind": "conflict",
            }
        finally:
            self._cross_sem.release()

    # -- request plane ----------------------------------------------------------

    async def _finish_txn(self, kind: str, start: float, awaitable) -> Dict[str, Any]:
        reply = await awaitable
        elapsed_us = (time.perf_counter() - start) * 1e6
        self.registry.histogram("serve.latency_us", {"kind": kind}).observe(elapsed_us)
        if not reply.get("ok"):
            self.registry.counter("serve.requests.failed").inc()
        return reply

    async def _handle_admin(self, message: Dict[str, Any]) -> Dict[str, Any]:
        method = message.get("method")
        if method == "ping":
            return {"ok": True, "pong": True, "shards": self.config.shards,
                    "strategy": self.config.strategy, "mode": self.config.mode}
        if method == "stats":
            shard_stats = []
            for backend in self.backends:
                reply = await backend.request({"id": "stats", "method": "stats"})
                shard_stats.append(reply.get("stats", {}))
            return {
                "ok": True,
                "connections": self._connections,
                "inbox_peaks": list(self.inbox_peaks),
                "shards": shard_stats,
            }
        if method in ("metrics", "prometheus"):
            merged = await self._merged_registry()
            if method == "metrics":
                return {"ok": True, "metrics": merged.snapshot()}
            return {"ok": True, "text": merged.to_prometheus()}
        if method == "conformance":
            verdicts = []
            for backend in self.backends:
                reply = await backend.request(
                    {"id": "conformance", "method": "conformance",
                     "rollover": bool(message.get("rollover", False))}
                )
                verdicts.append({k: v for k, v in reply.items() if k != "id"})
            clean = all(v.get("ok") and not v.get("sticky_failures") for v in verdicts)
            return {"ok": clean, "shards": verdicts}
        if method == "pause":
            self._pause[int(message.get("shard", 0))].clear()
            return {"ok": True}
        if method == "resume":
            self._pause[int(message.get("shard", 0))].set()
            return {"ok": True}
        if method == "shutdown":
            asyncio.ensure_future(self.stop())
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown method {method!r}", "kind": "protocol"}

    async def _merged_registry(self) -> MetricsRegistry:
        """Daemon-level metrics plus every shard's counters/gauges under a
        ``shard`` label, in one registry for the text exposition."""
        merged = MetricsRegistry()
        for (name, labels), counter in self.registry._counters.items():
            merged.counter(name, dict(labels)).inc(counter.value)
        for (name, labels), gauge in self.registry._gauges.items():
            merged.gauge(name, dict(labels)).set(gauge.value)
        for (name, labels), histogram in self.registry._histograms.items():
            merged.histogram(name, dict(labels)).samples.extend(histogram.samples)
        for i, backend in enumerate(self.backends):
            reply = await backend.request({"id": "metrics", "method": "metrics"})
            snapshot = reply.get("metrics", {})
            labels = {"shard": str(i)}
            for name, value in snapshot.get("counters", {}).items():
                merged.counter(name, labels).inc(value)
            for name, value in snapshot.get("gauges", {}).items():
                merged.gauge(name, labels).set(value)
            for name, samples in snapshot.get("histograms", {}).items():
                merged.histogram(name, labels).samples.extend(samples)
            merged.gauge("serve.inbox.depth", labels).set(self.inboxes[i].qsize())
            merged.gauge("serve.inbox.peak", labels).set(self.inbox_peaks[i])
        return merged

    async def _handle_connection(self, reader, writer) -> None:
        """One client connection.  The read loop only ever blocks on the
        *bounded* structures — a full shard inbox or the cross-shard
        semaphore — so an open-loop client that outruns the shards stalls
        here (TCP backpressure) instead of growing daemon memory.
        Replies go out as their transactions finish, not in arrival
        order; the ``id`` field is the client's correlation handle."""
        self._connections += 1
        self.registry.gauge("serve.connections").set(self._connections)
        write_lock = asyncio.Lock()
        replies: set = set()

        async def send(rid, reply: Dict[str, Any]) -> None:
            try:
                async with write_lock:
                    await write_frame(writer, {"id": rid, **reply})
            except (ConnectionError, RuntimeError):
                pass

        async def reply_when_done(rid, kind: str, start: float, awaitable) -> None:
            await send(rid, await self._finish_txn(kind, start, awaitable))

        def track(coro) -> None:
            task = asyncio.ensure_future(coro)
            replies.add(task)
            task.add_done_callback(replies.discard)

        try:
            while True:
                try:
                    message = await read_frame(reader)
                except FrameError:
                    # Unrecoverable stream (oversized/corrupt frame):
                    # answer once, then drop the connection.
                    await send(None, {"ok": False, "error": "bad frame",
                                      "kind": "protocol"})
                    break
                if message is None:
                    break
                if not isinstance(message, dict):
                    await send(None, {"ok": False, "kind": "protocol",
                                      "error": "frame must be a JSON object"})
                    continue
                rid = message.get("id")
                if message.get("method") != "txn":
                    await send(rid, await self._handle_admin(message))
                    continue
                ops = message.get("ops", [])
                try:
                    routed = split_by_shard(ops, self.config.shards)
                except ProtocolError as exc:
                    self.registry.counter("serve.requests.rejected").inc()
                    await send(rid, {"ok": False, "error": str(exc),
                                     "kind": "protocol"})
                    continue
                if not routed:
                    await send(rid, {"ok": False, "kind": "protocol",
                                     "error": "transaction has no operations"})
                    continue
                start = time.perf_counter()
                if len(routed) == 1:
                    ((shard, shard_ops),) = routed.items()
                    self.registry.counter("serve.requests.single").inc()
                    loop = asyncio.get_running_loop()
                    item = {
                        "token": f"s{next(self._txn_seq)}",
                        "ops": list(shard_ops),
                        "attempts": 0,
                        "future": loop.create_future(),
                    }
                    queue = self.inboxes[shard]
                    await queue.put(item)  # blocks when full → backpressure
                    depth = queue.qsize()
                    if depth > self.inbox_peaks[shard]:
                        self.inbox_peaks[shard] = depth
                    track(reply_when_done(rid, "single", start, item["future"]))
                else:
                    self.registry.counter("serve.requests.cross").inc()
                    await self._cross_sem.acquire()  # bounded coordinators
                    track(reply_when_done(
                        rid, "cross", start, self._run_cross(routed, ops)))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels live connection handlers mid-read;
            # fall through to cleanup instead of surfacing the
            # cancellation to the transport callback.
            pass
        finally:
            if replies:
                await asyncio.gather(*replies, return_exceptions=True)
            self._connections -= 1
            self.registry.gauge("serve.connections").set(self._connections)
            writer.close()


async def run_daemon(config: DaemonConfig, ready=None) -> None:
    """Start a daemon and block until shutdown.  ``ready`` (optional
    callable) receives the daemon once the listening socket is bound —
    the CLI uses it to print the ready line."""
    daemon = Daemon(config)
    await daemon.start()
    if ready is not None:
        ready(daemon)
    try:
        await daemon.serve_until_stopped()
    finally:
        await daemon.stop()
