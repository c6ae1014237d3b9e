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
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.serve.client import ServeClient
from repro.serve.daemon import Daemon, DaemonConfig
from repro.serve.loadgen import LoadConfig, run_load


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
