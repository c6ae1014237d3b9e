"""Inline-mode daemon end to end over real TCP: transactions, 2PC,
pipelined out-of-order replies, the admin plane, bounded-inbox
backpressure, replies written before the windowed gate runs, a process
mode that answers like inline, and the ``repro assert-*`` CI exit codes
(``src/repro/serve/daemon.py``, ``src/repro/cli.py``).
"""

import asyncio
import json
import os
import random
import threading

import pytest

from repro.cli import main as cli_main
from repro.serve import daemon as daemon_module
from repro.serve import shard as shard_module
from repro.serve.client import ServeClient
from repro.serve.daemon import Daemon, DaemonConfig
from repro.serve.shard import ShardState
from repro.serve.sharding import shard_of, split_by_shard


def shard_key(space: str, shard: int, shards: int = 2) -> str:
    """A key that hashes to ``shard``."""
    n = 0
    while True:
        key = f"{space}-{n}"
        if shard_of(space, key, shards) == shard:
            return key
        n += 1


def with_daemon(coro_fn, **overrides):
    """Run ``coro_fn(daemon, client)`` against a fresh inline daemon on
    an ephemeral port, torn down afterwards."""
    config = DaemonConfig(
        **{"host": "127.0.0.1", "port": 0, "shards": 2, "seed": 3,
           "mode": "inline", **overrides}
    )

    async def go():
        daemon = Daemon(config)
        await daemon.start()
        try:
            client = ServeClient("127.0.0.1", daemon.port, pool=2)
            await client.connect(retries=5)
            try:
                return await coro_fn(daemon, client)
            finally:
                await client.close()
        finally:
            await daemon.stop()

    return asyncio.run(go())


def test_single_and_cross_shard_txns():
    k0 = shard_key("kvmap", 0)
    k1 = shard_key("kvmap", 1)

    async def scenario(daemon, client):
        assert await client.txn([["kvmap", "put", k0, 10]]) == [None]
        assert await client.txn([["kvmap", "put", k1, 20]]) == [None]
        # spans both shards -> deterministic 2PC, results in submitted order
        results = await client.txn(
            [["kvmap", "get", k0], ["kvmap", "get", k1]]
        )
        assert results == [10, 20]
        ping = await client.ping()
        assert ping["shards"] == 2
        stats = await client.stats()
        assert len(stats["shards"]) == 2
        verdict = await client.conformance()
        assert verdict["ok"]

    with_daemon(scenario)


def test_malformed_requests_answered_not_fatal():
    async def scenario(daemon, client):
        reply = await client.try_txn([["kvmap", "put", "k"]])  # bad arity
        assert not reply["ok"] and reply["kind"] == "protocol"
        reply = await client.try_txn([["bogus", "op", 1]])
        assert not reply["ok"] and reply["kind"] == "protocol"
        # the connection survives protocol errors
        results = await client.txn([["counter", "inc"], ["counter", "get"]])
        assert results[1] == 1

    with_daemon(scenario)


def test_replies_are_pipelined_out_of_order():
    """A transaction parked behind a paused shard must not block replies
    for other shards on the same connection."""
    k0 = shard_key("kvmap", 0)
    k1 = shard_key("kvmap", 1)

    async def scenario(daemon, client):
        await client.pause_shard(0)
        slow = asyncio.ensure_future(client.txn([["kvmap", "put", k0, 1]]))
        fast = await asyncio.wait_for(
            client.txn([["kvmap", "put", k1, 2]]), timeout=5
        )
        assert fast == [None]
        assert not slow.done()
        await client.resume_shard(0)
        assert await asyncio.wait_for(slow, timeout=5) == [None]

    with_daemon(scenario)


def test_open_loop_flood_cannot_grow_inbox_unboundedly():
    """The backpressure pin: with shard 0 paused, an open-loop flood of
    far more transactions than the inbox bound leaves the shard's inbox
    peak at its configured depth — excess arrivals wait in the kernel
    socket buffer (TCP flow control), not in daemon memory."""
    inbox = 8
    flood = 80
    k0 = shard_key("kvmap", 0)

    async def scenario(daemon, client):
        admin = ServeClient("127.0.0.1", daemon.port, pool=1)
        await admin.connect(retries=5)
        try:
            await admin.pause_shard(0)
            pending = [
                asyncio.ensure_future(client.try_txn([["kvmap", "put", k0, n]]))
                for n in range(flood)
            ]
            # let the flood propagate as far as backpressure allows
            for _ in range(50):
                await asyncio.sleep(0.01)
            stats = await admin.stats()
            assert stats["inbox_peaks"][0] <= inbox
            await admin.resume_shard(0)
            replies = await asyncio.wait_for(asyncio.gather(*pending), 30)
            assert all(r["ok"] for r in replies)
            stats = await admin.stats()
            assert stats["inbox_peaks"][0] <= inbox
        finally:
            await admin.close()

    with_daemon(scenario, inbox=inbox, batch=4)


def test_metrics_flow_through_registry_to_prometheus():
    async def scenario(daemon, client):
        await client.txn([["kvmap", "put", shard_key("kvmap", 0), 1]])
        await client.txn(
            [["kvmap", "get", shard_key("kvmap", 0)],
             ["kvmap", "get", shard_key("kvmap", 1)]]
        )
        metrics = await client.metrics()
        assert metrics["serve.requests.single"]["value"] >= 1
        assert metrics["serve.requests.cross"]["value"] >= 1
        committed = sum(
            summary["value"]
            for name, summary in metrics.items()
            if name.startswith("serve.txn.committed")
        )
        assert committed >= 1  # the cross txn commits via serve.2pc.* instead
        # one 2PC sub-commit per participating shard
        for shard in (0, 1):
            assert metrics[f'serve.2pc.committed{{shard="{shard}"}}']["value"] >= 1
        text = await client.prometheus()
        assert "serve_requests_single" in text
        assert "serve_requests_cross" in text
        assert "serve_latency_us" in text
        assert 'shard="0"' in text and 'shard="1"' in text
        assert "serve_inbox_depth" in text

    with_daemon(scenario)


# -- the gate runs after the replies -------------------------------------------


def test_wave_replies_are_written_before_its_gate_runs(monkeypatch):
    """Inline mode: every reply of a wave is on the wire before that
    wave's ``maybe_checkpoint`` starts.  All traffic goes to shard 0, so
    the count of committed outcomes and the count of written replies
    must agree at every gate."""
    events = []
    write_frame = daemon_module.write_frame
    execute_wave = ShardState.execute_wave
    maybe_checkpoint = ShardState.maybe_checkpoint

    async def recording_write_frame(writer, message, *args, **kwargs):
        if isinstance(message, dict) and "results" in message:
            events.append(("reply", 1))
        return await write_frame(writer, message, *args, **kwargs)

    def recording_execute_wave(self, items):
        outcomes = execute_wave(self, items)
        events.append(("wave", sum(o.ok for o in outcomes)))
        return outcomes

    def recording_maybe_checkpoint(self):
        events.append(("gate", 0))
        return maybe_checkpoint(self)

    monkeypatch.setattr(daemon_module, "write_frame", recording_write_frame)
    monkeypatch.setattr(ShardState, "execute_wave", recording_execute_wave)
    monkeypatch.setattr(ShardState, "maybe_checkpoint", recording_maybe_checkpoint)
    keys = [key for key in (f"kvmap-{n}" for n in range(200))
            if shard_of("kvmap", key, 2) == 0][:24]

    async def scenario(daemon, client):
        for key in keys[:6]:  # one request in flight: one txn per wave
            assert await client.txn([["kvmap", "put", key, 1]]) == [None]
        replies = await asyncio.gather(
            *(client.txn([["kvmap", "put", key, 2]]) for key in keys[6:])
        )
        assert replies == [[None]] * len(keys[6:])

    with_daemon(scenario)
    gates = 0
    committed = written = 0
    for kind, count in events:
        if kind == "wave":
            committed += count
        elif kind == "reply":
            written += count
        else:
            gates += 1
            assert written == committed, events
    assert committed == written == len(keys)
    assert gates >= 6


def _forced_gate_failure(*_args, **_kwargs):
    return ["forced gate failure"]


def _snapshots(durable):
    """Every shard's snapshot file names under a durability root."""
    if not os.path.isdir(durable):
        return []
    return sorted(
        name
        for shard in sorted(os.listdir(durable))
        if os.path.isdir(durable / shard)
        for name in os.listdir(durable / shard)
        if name.startswith("snapshot-")
    )


def test_failing_gate_keeps_outcomes_goes_sticky_and_writes_no_snapshot(
    tmp_path, monkeypatch
):
    """A gate that fails after the replies changes none of them: the
    daemon counts the failure, the shard's verdict goes sticky, the
    flight recorder dumps, and no snapshot is taken from the unverified
    state."""
    k0, k1 = shard_key("kvmap", 0), shard_key("kvmap", 1)
    txns = [
        [["kvmap", "put", k0, 1]],
        [["kvmap", "get", k0], ["counter", "inc"]],
        [["kvmap", "put", k0, 5], ["kvmap", "put", k1, 6]],
        [["kvmap", "get", k0], ["kvmap", "get", k1]],
        [["counter", "inc"], ["counter", "get"]],
    ]

    def run(name, force):
        durable = tmp_path / name / "wal"

        async def scenario(daemon, client):
            snapshots = _snapshots(durable)
            if force:
                monkeypatch.setattr(
                    shard_module, "conformance_failures", _forced_gate_failure
                )
            replies = [await client.try_txn(ops) for ops in txns]
            monkeypatch.undo()
            metrics = await client.metrics()
            stats = await client.stats()
            verdict = await client.conformance()
            return replies, snapshots, _snapshots(durable), metrics, stats, verdict

        return with_daemon(
            scenario, durable=str(durable), conformance_window=1,
            flight_dir=str(tmp_path / name / "flight"),
        )

    clean, before, after, metrics, _stats, verdict = run("clean", force=False)
    assert all(reply["ok"] for reply in clean)
    assert verdict["ok"] and after != before  # window 1: gates snapshot
    assert metrics.get("serve.conformance.failures", {}).get("value", 0) == 0

    failed, before, after, metrics, stats, verdict = run("forced", force=True)
    assert failed == clean
    assert metrics["serve.conformance.failures"]["value"] >= 1
    sticky = [s["conformance_failures"] for s in stats["shards"]]
    assert any("forced gate failure" in f for f in sticky), sticky
    assert not verdict["ok"]
    assert after == before
    assert any(s["flight_dumps"] for s in stats["shards"])


def test_process_mode_answers_like_inline():
    """Forked shard workers behind unix sockets return the replies the
    inline shards return for the same seeded traffic, one request in
    flight, and gate clean."""
    rng = random.Random(17)
    keys = [f"kvmap-{n}" for n in range(8)]
    txns = []
    for _ in range(24):
        a, b = rng.sample(keys, 2)
        if rng.random() < 0.5:
            txns.append([["kvmap", "put", a, rng.randrange(100)], ["counter", "inc"]])
        else:
            txns.append([["kvmap", "get", a], ["kvmap", "put", b, rng.randrange(100)]])
    assert any(len(split_by_shard(ops, 2)) == 2 for ops in txns)  # 2PC too

    async def scenario(daemon, client):
        replies = [await client.try_txn(ops) for ops in txns]
        return replies, await client.conformance()

    inline, inline_verdict = with_daemon(scenario)
    forked, forked_verdict = with_daemon(scenario, mode="process")
    assert all(reply["ok"] for reply in inline)
    assert forked == inline
    assert inline_verdict["ok"] and forked_verdict["ok"]
    # the same gates ran over the same commits (the admin verdict is one
    # more window on top of the workers' checkpoints)
    for ours, theirs in zip(forked_verdict["shards"], inline_verdict["shards"]):
        assert ours["windows_checked"] == theirs["windows_checked"] > 1
        assert ours["commits_gated"] == theirs["commits_gated"]


# -- the assert-* CI subcommands ----------------------------------------------


def run_cli(argv):
    """cli_main, with SystemExit(2) (the unreachable-daemon path)
    normalised to its exit code."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def background_daemon():
    """An inline daemon on its own thread + event loop, so synchronous
    CLI entry points (which call ``asyncio.run``) can target it."""
    holder = {}
    ready = threading.Event()

    def run():
        async def go():
            daemon = Daemon(
                DaemonConfig(host="127.0.0.1", port=0, shards=2, seed=5)
            )
            await daemon.start()
            holder["daemon"] = daemon
            holder["port"] = daemon.port
            holder["loop"] = asyncio.get_running_loop()
            ready.set()
            await daemon.serve_until_stopped()

        asyncio.run(go())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10)
    yield holder
    future = asyncio.run_coroutine_threadsafe(
        holder["daemon"].stop(), holder["loop"]
    )
    future.result(10)
    thread.join(10)


def test_assert_subcommands_exit_codes(background_daemon, tmp_path):
    port = str(background_daemon["port"])
    report = tmp_path / "load.json"
    assert run_cli([
        "loadgen", "--port", port, "--tiny", "--requests", "60",
        "--out", str(report),
    ]) == 0
    row = json.loads(report.read_text())
    assert row["committed"] == 60 and row["abort_rate"] == 0

    base = ["--port", port, "--report", str(report)]
    assert run_cli(["assert-throughput", *base, "--min-rps", "1"]) == 0
    assert run_cli(["assert-throughput", *base, "--min-rps", "1e9"]) == 2
    assert run_cli(["assert-latency", *base, "--max-p99-ms", "1e9"]) == 0
    assert run_cli(["assert-latency", *base, "--max-p99-ms", "1e-6"]) == 2
    assert run_cli(["assert-conformance", "--port", port]) == 0


def test_assert_unreachable_daemon_is_exit_2():
    # nothing listens on this port (bind-and-release to find a free one)
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = str(probe.getsockname()[1])
    probe.close()
    assert run_cli(["assert-conformance", "--port", port]) == 2
