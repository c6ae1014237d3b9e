"""One-configuration measurement of the serve perf tier (``repro perf
--tier serve``, committed as ``benchmarks/BENCH_serve.json``): start a
daemon on an ephemeral port, drive a closed-loop load run, then ask
every shard's conformance gate before shutting down.

Two modes matter and are **not** comparable to each other:

* ``process`` — one forked worker per shard, the deployment shape.  The
  matrix and the shard-scaling row use it (aggregate req/s can only
  scale across shards when shards own distinct event loops).
* ``inline`` — all shards on the caller's loop, deterministic and
  fork-free.  The gate rows use it so ``repro perf --tiny`` stays cheap
  and CI-safe; the baseline therefore records gate rows measured inline,
  separate from the process-mode matrix.

A ``durable`` directory puts the daemon on segment stores and adds
``fsyncs_per_txn`` to the row: the shard and coordinator
``durable.fsync.calls`` the load caused, per committed transaction, read
before shutdown (whose close would flush what is still buffered).

:func:`measure_soak` is the tier's memory row: one inline shard fed one
transaction per wave, measuring what each wave leaves behind.
"""

from __future__ import annotations

import asyncio
import gc
import tracemalloc
from typing import Any, Dict, Optional

from repro.core.logs import EMPTY_GLOBAL, EMPTY_LOCAL
from repro.serve.client import ServeClient
from repro.serve.daemon import Daemon, DaemonConfig
from repro.serve.loadgen import LoadConfig, WorkloadSource, run_load
from repro.serve.shard import ShardConfig, ShardState


async def measure_serve_async(
    strategy: str,
    shards: int,
    *,
    mode: str = "inline",
    workload: str = "kvmap",
    requests: int = 400,
    cross_ratio: float = 0.0,
    seed: int = 0,
    conformance_window: int = 64,
    max_inflight: int = 32,
    pool: int = 2,
    flight_dir: Optional[str] = None,
    durable: Optional[str] = None,
) -> Dict[str, Any]:
    """One configuration end to end: daemon up, closed-loop load,
    conformance verdict, daemon down.  Returns a JSON-safe row."""
    config = DaemonConfig(
        host="127.0.0.1",
        port=0,
        shards=shards,
        strategy=strategy,
        seed=seed,
        mode=mode,
        conformance_window=conformance_window,
        flight_dir=flight_dir,
        durable=durable,
    )
    daemon = Daemon(config)
    await daemon.start()
    try:
        load = LoadConfig(
            host="127.0.0.1",
            port=daemon.port,
            mode="closed",
            requests=requests,
            workload=workload,
            cross_ratio=cross_ratio,
            seed=seed,
            pool=pool,
            max_inflight=max_inflight,
        )
        client = ServeClient("127.0.0.1", daemon.port, pool=1)
        await client.connect(retries=4)
        try:
            fsyncs = await _fsync_calls(client)
            report = await run_load(load)
            fsyncs = await _fsync_calls(client) - fsyncs
            verdict = await client.conformance()
        finally:
            await client.close()
    finally:
        await daemon.stop()
    row = report.to_dict()
    if durable:
        row["fsyncs_per_txn"] = round(fsyncs / max(report.committed, 1), 4)
    shard_rows = verdict.get("shards", [])
    row.update(
        {
            "strategy": strategy,
            "shards": shards,
            "daemon_mode": mode,
            "cross_ratio": cross_ratio,
            "seed": seed,
            "conformance_ok": bool(verdict.get("ok")),
            "commits_gated": sum(s.get("commits_gated", 0) for s in shard_rows),
            "conformance_failures": [
                failure
                for s in shard_rows
                for failure in (
                    list(s.get("failures", [])) + list(s.get("sticky_failures", []))
                )
            ],
        }
    )
    return row


async def _fsync_calls(client: ServeClient) -> int:
    """Every store's ``durable.fsync.calls`` so far: the shards' (under a
    ``shard`` label) plus the coordinator decision log's."""
    metrics = await client.metrics()
    return int(sum(
        summary["value"] for name, summary in metrics.items()
        if name.partition("{")[0] == "durable.fsync.calls"
    ))


def measure_serve(strategy: str, shards: int, **kwargs: Any) -> Dict[str, Any]:
    """Synchronous wrapper around :func:`measure_serve_async`."""
    return asyncio.run(measure_serve_async(strategy, shards, **kwargs))


def measure_soak(seed: int, waves: int) -> Dict[str, Any]:
    """Drive one inline encounter shard through ``waves`` single-
    transaction waves of the ``mixed`` workload, each followed by
    ``maybe_checkpoint`` (so every wave is gated and rolled over), and
    report what the run keeps alive.

    ``retained_bytes_per_wave`` is tracemalloc's traced memory after a
    full collection at the last wave minus that at the middle wave,
    divided by the waves between: the first half warms every memo and
    table that has a fixed size.  ``empty_log_slots_added`` is how many
    memo entries the run added to the shared empty-log singletons; it is
    a difference, not a size, because earlier runs in the same process
    may have filled them."""
    state = ShardState(ShardConfig(strategy="encounter"))
    source = WorkloadSource(LoadConfig(workload="mixed", seed=seed), shards=1)

    def slots() -> int:
        return len(EMPTY_LOCAL._proj or ()) + len(EMPTY_GLOBAL._proj or ())

    slots_before = slots()
    half = waves // 2
    traced = {}
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        for wave in range(1, waves + 1):
            state.execute_wave(
                [{"id": f"s{wave}", "ops": source.next_txn(), "attempts": 0}]
            )
            state.maybe_checkpoint()
            if wave in (half, waves):
                gc.collect()
                traced[wave] = tracemalloc.get_traced_memory()[0]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return {
        "strategy": "encounter",
        "shards": 1,
        "workload": "mixed",
        "seed": seed,
        "waves": waves,
        "committed": dict(state.registry.counter_values()).get(
            "serve.txn.committed", 0
        ),
        "conformance_ok": not state.conformance_failure_log,
        "retained_bytes_per_wave": round(
            (traced[waves] - traced[half]) / (waves - half), 1
        ),
        "empty_log_slots_added": slots() - slots_before,
    }
