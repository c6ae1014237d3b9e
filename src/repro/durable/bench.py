"""Measurement core of the durable perf tier (``repro perf --tier
durable``, committed as ``benchmarks/BENCH_durable.json``).

Three measurements:

* **append** — framed-record append + group-commit fsync throughput on
  a scratch store, one row per batch size (the group-commit sweep: the
  records/fsync ratio is the knob, the rows show what it buys);
* **recovery** — build a real committed history through a durable
  shard, then time :func:`~repro.durable.recovery.open_durable_shard`
  replaying and re-verifying it.  The deterministic fields (commits
  written, commits replayed, conformance) double as identity gates;
* **torn tail** — the recovery row also proves the torn-tail path: the
  log is damaged with a partial frame before reopening, so every
  recovery measurement *is* a truncate-and-recover round trip.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from typing import Any, Dict, List

from repro.durable.records import RECORD_MAGIC
from repro.durable.store import SegmentStore

#: group-commit batch sizes for the append sweep
BATCHES = (1, 8, 64)
APPEND_RECORDS = 2000
RECOVERY_SIZES = (60, 240)
#: every committed row is the median-time run of this many: one run of
#: a few milliseconds is at the mercy of one scheduler hiccup
RUNS = 5


def measure_append(
    records: int, batch: int, *, payload_value: int = 12345
) -> Dict[str, Any]:
    """Append ``records`` framed records, fsyncing every ``batch``."""
    with tempfile.TemporaryDirectory(prefix="bench-durable-") as scratch:
        store = SegmentStore(os.path.join(scratch, "log"))
        record = {
            "t": "commit",
            "txn": "bench",
            "ops": [["kvmap", "put", "bench-key", payload_value]],
            "results": [None],
        }
        started = time.perf_counter()
        for i in range(records):
            store.append(record)
            if (i + 1) % batch == 0:
                store.sync()
        store.sync()
        elapsed = time.perf_counter() - started
        fsyncs = store.registry.counter("durable.fsync.calls").value
        appended_bytes = store.registry.counter("durable.append.bytes").value
        store.close()
    return {
        "records": records,
        "batch": batch,
        "seconds": round(elapsed, 6),
        "records_per_sec": round(records / elapsed, 1),
        "fsyncs": fsyncs,
        "bytes": appended_bytes,
    }


def measure_recovery(
    commits: int, *, seed: int = 0, window: int = 16, torn_tail: bool = True
) -> Dict[str, Any]:
    """Commit ``commits`` transactions through a durable shard, damage
    the tail, then time the full recover-replay-verify path."""
    from repro.durable.recovery import open_durable_shard
    from repro.serve.shard import ShardConfig

    rng = random.Random(seed)
    with tempfile.TemporaryDirectory(prefix="bench-durable-") as scratch:
        directory = os.path.join(scratch, "shard-000")
        config = ShardConfig(
            index=0,
            shards=1,
            strategy="encounter",
            root_seed=seed,
            conformance_window=window,
            durable_dir=directory,
        )
        state = open_durable_shard(config)
        written = 0
        while written < commits:
            size = min(4, commits - written)
            items = [
                {
                    "id": f"b{written + j}",
                    "ops": [["kvmap", "put", f"bk-{written + j}",
                             rng.randrange(1000)],
                            ["counter", "inc"]],
                    "attempts": 0,
                }
                for j in range(size)
            ]
            outcomes = state.execute_wave(items)
            written += sum(1 for o in outcomes if o.ok)
            state.maybe_checkpoint()
        state.durable.crash()

        if torn_tail:
            # every recovery measurement is also a torn-tail round trip
            names = sorted(
                n for n in os.listdir(directory) if n.endswith(".seg")
            )
            with open(os.path.join(directory, names[-1]), "ab") as handle:
                handle.write(RECORD_MAGIC + (1 << 20).to_bytes(4, "little"))

        started = time.perf_counter()
        recovered = open_durable_shard(config)
        elapsed = time.perf_counter() - started
        report = recovered.last_recovery
        recovered.durable.close()
    return {
        "commits": commits,
        "window": window,
        "torn_tail": torn_tail,
        "seconds": round(elapsed, 6),
        "commits_per_sec": round(commits / elapsed, 1),
        "replayed_commits": report.replayed_commits,
        "snapshot_watermark": report.snapshot_watermark,
        "torn_tail_dropped": report.torn_tail_dropped,
        "conformance_ok": report.conformance_ok,
    }


def median_run(runs: List[Dict[str, Any]], rate: str) -> Dict[str, Any]:
    """The median-time run's ``seconds`` and ``rate``; every other field
    holds its value when all runs agree, else the list of what each run
    saw (so an identity gate on a fact that wobbles fails)."""
    runs = sorted(runs, key=lambda run: run["seconds"])
    row = {}
    for key in runs[0]:
        values = [run[key] for run in runs]
        row[key] = values[0] if values.count(values[0]) == len(values) else values
    middle = runs[len(runs) // 2]
    row["seconds"], row[rate] = middle["seconds"], middle[rate]
    return row


def measure_durable(seed: int = 0) -> Dict[str, Any]:
    """The append sweep plus one recovery row per log length, each row
    the median of :data:`RUNS` runs."""
    return {
        "seed": seed,
        "append": [
            median_run(
                [measure_append(APPEND_RECORDS, batch) for _ in range(RUNS)],
                "records_per_sec",
            )
            for batch in BATCHES
        ],
        "recovery": [
            median_run(
                [measure_recovery(size, seed=seed) for _ in range(RUNS)],
                "commits_per_sec",
            )
            for size in RECOVERY_SIZES
        ],
    }
