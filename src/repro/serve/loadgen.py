"""Closed/open-loop load generator for the ``repro serve`` daemon.

The generator multiplexes ``sessions`` *logical* sessions (tens of
thousands are fine — a session is just a seeded workload cursor, not a
socket) over a bounded :class:`~repro.serve.client.ServeClient`
connection pool:

* **closed loop** — each in-flight slot issues its next transaction the
  moment the previous one answers; concurrency is exactly
  ``max_inflight`` and offered load adapts to service rate (the classic
  saturation-throughput harness);
* **open loop** — arrivals follow a seeded schedule at ``rate`` req/s
  regardless of completions, the harness that exposes queueing: latency
  includes the time an arrival waits for an in-flight slot.  The
  generator itself is *bounded* — at most ``max_inflight`` transactions
  are in flight, arrivals beyond that wait (counted as ``throttled``) —
  so an overdriven daemon sees TCP backpressure, not unbounded inboxes
  (``tests/test_serve_daemon.py`` pins the depth bound).

Workloads are pure functions of ``(seed, session, step)``.  Single-shard
transactions are single-shard *by construction* (keys drawn from
per-shard pools bucketed via :func:`~repro.serve.sharding.shard_of`);
``cross_ratio`` deliberately mixes two shards' pools to exercise 2PC.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.obs.metrics import percentile_nearest_rank
from repro.serve.client import ServeClient
from repro.serve.sharding import shard_of


@dataclass(frozen=True)
class LoadConfig:
    host: str = "127.0.0.1"
    port: int = 7411
    mode: str = "closed"  # closed | open
    #: logical sessions (workload cursors), multiplexed over the pool
    sessions: int = 100
    #: total transactions to issue across all sessions
    requests: int = 1000
    #: open-loop arrival rate, req/s
    rate: float = 500.0
    workload: str = "kvmap"  # kvmap | bank | counter | mixed
    #: distinct keys per keyed space
    keys: int = 128
    ops_per_txn: int = 2
    read_ratio: float = 0.5
    #: fraction of transactions deliberately spanning two shards
    cross_ratio: float = 0.0
    seed: int = 0
    #: TCP connections in the pool
    pool: int = 4
    #: in-flight bound (closed-loop concurrency / open-loop cap)
    max_inflight: int = 64


@dataclass
class LoadReport:
    """JSON-safe outcome of one load run."""

    mode: str
    workload: str
    requests: int = 0
    committed: int = 0
    failed: int = 0
    throttled: int = 0
    elapsed_s: float = 0.0
    rps: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    abort_rate: float = 0.0
    latencies_ms: List[float] = field(default_factory=list, repr=False)

    def finalise(self) -> "LoadReport":
        samples = sorted(self.latencies_ms)
        self.p50_ms = round(percentile_nearest_rank(samples, 0.50), 3)
        self.p99_ms = round(percentile_nearest_rank(samples, 0.99), 3)
        self.rps = round(self.requests / self.elapsed_s, 1) if self.elapsed_s else 0.0
        total = self.committed + self.failed
        self.abort_rate = round(self.failed / total, 4) if total else 0.0
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "workload": self.workload,
            "requests": self.requests,
            "committed": self.committed,
            "failed": self.failed,
            "throttled": self.throttled,
            "elapsed_s": round(self.elapsed_s, 3),
            "rps": self.rps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "abort_rate": self.abort_rate,
        }


class WorkloadSource:
    """Seeded transaction generator; see module docstring."""

    def __init__(self, config: LoadConfig, shards: int) -> None:
        self.config = config
        self.shards = shards
        self.rng = random.Random(f"loadgen:{config.seed}")
        # Bucket the key space per shard so single-shard txns stay
        # single-shard by construction.
        self.kv_pools: List[List[str]] = [[] for _ in range(shards)]
        self.bank_pools: List[List[str]] = [[] for _ in range(shards)]
        index = 0
        while min(len(p) for p in self.kv_pools) < max(1, config.keys // shards):
            key = f"u{index}"
            self.kv_pools[shard_of("kvmap", key, shards)].append(key)
            index += 1
        index = 0
        while min(len(p) for p in self.bank_pools) < max(1, config.keys // shards):
            acct = f"acct{index}"
            self.bank_pools[shard_of("bank", acct, shards)].append(acct)
            index += 1

    def _kv_ops(self, pool: Sequence[str], rng: random.Random) -> List[List]:
        ops: List[List] = []
        for _ in range(self.config.ops_per_txn):
            key = rng.choice(pool)
            if rng.random() < self.config.read_ratio:
                ops.append(["kvmap", "get", key])
            else:
                ops.append(["kvmap", "put", key, rng.randrange(1 << 16)])
        return ops

    def _bank_ops(self, pool: Sequence[str], rng: random.Random) -> List[List]:
        if rng.random() < self.config.read_ratio or len(pool) < 2:
            return [["bank", "balance", rng.choice(pool)]]
        src, dst = rng.sample(pool, 2)
        amount = rng.randrange(1, 50)
        # A transfer: the withdraw may return False (insufficient funds)
        # — that is a committed result, not an abort.
        return [["bank", "deposit", dst, amount], ["bank", "withdraw", src, amount]]

    def next_txn(self) -> List[List]:
        rng = self.rng
        config = self.config
        workload = config.workload
        if workload == "mixed":
            workload = rng.choice(("kvmap", "bank", "counter", "queue"))
        if workload == "counter":
            return [["counter", "inc"], ["counter", "get"]]
        if workload == "queue":
            return [["queue", "enq", rng.randrange(1 << 16)], ["queue", "size"]]
        pools = self.kv_pools if workload == "kvmap" else self.bank_pools
        build = self._kv_ops if workload == "kvmap" else self._bank_ops
        if self.shards > 1 and rng.random() < config.cross_ratio:
            a, b = rng.sample(range(self.shards), 2)
            return build(pools[a], rng) + build(pools[b], rng)
        return build(pools[rng.randrange(self.shards)], rng)


async def run_load(config: LoadConfig) -> LoadReport:
    """Drive one load run against a live daemon; returns the report."""
    client = ServeClient(config.host, config.port, pool=config.pool)
    await client.connect()
    try:
        ping = await client.ping()
        shards = int(ping.get("shards", 1))
        source = WorkloadSource(config, shards)
        report = LoadReport(mode=config.mode, workload=config.workload)
        inflight = asyncio.Semaphore(config.max_inflight)

        async def issue(ops: List[List]) -> None:
            start = time.perf_counter()
            reply = await client.try_txn(ops)
            report.latencies_ms.append((time.perf_counter() - start) * 1e3)
            report.requests += 1
            if reply.get("ok"):
                report.committed += 1
            else:
                report.failed += 1

        began = time.perf_counter()
        if config.mode == "closed":
            remaining = iter(range(config.requests))

            async def slot() -> None:
                for _ in remaining:
                    async with inflight:
                        await issue(source.next_txn())

            # One slot per unit of closed-loop concurrency; the shared
            # iterator hands out work until the budget is spent.
            workers = min(config.max_inflight, max(1, config.requests))
            await asyncio.gather(*[slot() for _ in range(workers)])
        else:
            interval = 1.0 / max(config.rate, 1e-6)
            tasks: List[asyncio.Task] = []

            async def arrival(ops: List[List]) -> None:
                async with inflight:
                    await issue(ops)

            for n in range(config.requests):
                target = began + n * interval
                delay = target - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                if inflight.locked():
                    report.throttled += 1
                tasks.append(asyncio.ensure_future(arrival(source.next_txn())))
            await asyncio.gather(*tasks)
        report.elapsed_s = time.perf_counter() - began
        return report.finalise()
    finally:
        await client.close()


def run_load_sync(config: LoadConfig) -> LoadReport:
    return asyncio.run(run_load(config))
