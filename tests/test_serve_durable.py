"""Durability wired into the serve daemon: restart round trips over real
TCP, cross-shard 2PC through the fsynced coordinator decision log, the
participant's unsynced commit record riding the next fsync, the
double-daemon lock guard (exit 2), and the ``durable.*`` / fsync metrics
in the merged admin registry (``src/repro/serve/daemon.py``,
``src/repro/durable/``).
"""

import asyncio
import os
import subprocess
import sys

from repro.durable.inspect import read_directory_records
from repro.durable.recovery import open_durable_shard
from repro.serve.client import ServeClient
from repro.serve.daemon import Daemon, DaemonConfig
from repro.serve.shard import ShardConfig
from repro.serve.sharding import shard_of

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def shard_key(space, shard, shards=2):
    n = 0
    while True:
        key = f"{space}-{n}"
        if shard_of(space, key, shards) == shard:
            return key
        n += 1


def with_durable_daemon(coro_fn, durable, **overrides):
    config = DaemonConfig(
        host="127.0.0.1", port=0, shards=2, seed=3, mode="inline",
        durable=str(durable), conformance_window=6, **overrides
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


class TestDaemonRestart:
    def test_committed_writes_survive_daemon_restart(self, tmp_path):
        durable = tmp_path / "wal"
        k0, k1 = shard_key("kvmap", 0), shard_key("kvmap", 1)

        async def write(daemon, client):
            for i in range(8):
                await client.txn([["kvmap", "put", k0, i], ["counter", "inc"]])
            await client.txn([["kvmap", "put", k1, 99]])

        async def read(daemon, client):
            results = await client.txn(
                [["kvmap", "get", k0], ["kvmap", "get", k1],
                 ["counter", "get"]]
            )
            assert results == [7, 99, 8]
            stats = await client.stats()
            for i, shard in enumerate(stats["shards"]):
                d = shard["durable"]
                assert d["directory"].endswith(f"shard-{i:03d}")
                assert d["recovery"]["conformance_ok"]

        with_durable_daemon(write, durable)
        with_durable_daemon(read, durable)  # a fresh daemon, same WAL

    def test_cross_shard_2pc_survives_restart(self, tmp_path):
        durable = tmp_path / "wal"
        k0, k1 = shard_key("kvmap", 0), shard_key("kvmap", 1)

        async def write(daemon, client):
            # spans both shards: prepare records + a coord decide record
            results = await client.txn(
                [["kvmap", "put", k0, 10], ["kvmap", "put", k1, 20]]
            )
            assert results == [None, None]

        async def read(daemon, client):
            assert await client.txn(
                [["kvmap", "get", k0], ["kvmap", "get", k1]]
            ) == [10, 20]

        with_durable_daemon(write, durable)
        coord = durable / "coord"
        assert coord.is_dir() and any(
            name.endswith(".seg") for name in os.listdir(coord)
        )
        with_durable_daemon(read, durable)

    def test_durable_metrics_exposed_per_shard(self, tmp_path):
        async def scenario(daemon, client):
            for i in range(4):
                await client.txn([["counter", "inc"]])
            metrics = await client.metrics()
            # the counter space lives on one shard; find which
            shard = shard_of("counter", None, 2)
            appended = metrics[f'durable.append.records{{shard="{shard}"}}']
            assert appended["value"] >= 4
            fsync = metrics[f'serve.fsync.us{{shard="{shard}"}}']
            assert fsync["count"] > 0 and fsync["p99"] > 0
            batch = metrics[f'durable.fsync.batch{{shard="{shard}"}}']
            assert batch["count"] == fsync["count"]

        with_durable_daemon(scenario, tmp_path / "wal")


class TestParticipantCommitRidesNextFsync:
    def open_shard(self, tmp_path):
        return open_durable_shard(ShardConfig(
            index=0, shards=1, root_seed=3, conformance_window=64,
            durable_dir=str(tmp_path / "shard-000"),
        ))

    def fsyncs(self, state):
        return state.registry.counter("durable.fsync.calls").value

    def test_commit_prepared_buffers_one_record_without_an_fsync(self, tmp_path):
        state = self.open_shard(tmp_path)
        assert state.prepare("x1", [["kvmap", "put", "k", 7]])["ok"]
        assert state.durable.unsynced_records == 0  # the prepare is fsynced
        before = self.fsyncs(state)
        assert state.commit_prepared("x1")["ok"]
        assert state.durable.unsynced_records == 1
        assert self.fsyncs(state) == before
        state.durable.close()

    def test_next_wave_persists_the_commit_record_first(self, tmp_path):
        state = self.open_shard(tmp_path)
        assert state.prepare("x1", [["kvmap", "put", "k", 7]])["ok"]
        assert state.commit_prepared("x1")["ok"]
        before = self.fsyncs(state)
        outcomes = state.execute_wave(
            [{"id": "reader", "ops": [["kvmap", "get", "k"]], "attempts": 0}]
        )
        assert outcomes[0].ok and list(outcomes[0].results) == [7]
        assert self.fsyncs(state) == before + 1  # one fsync for both
        assert state.durable.unsynced_records == 0
        state.durable.crash()  # drops nothing: the wave synced
        records, _watermark = read_directory_records(str(tmp_path / "shard-000"))
        lsn = {r["txn"]: r["lsn"] for r in records if r.get("t") == "commit"}
        assert lsn["x1"] < lsn["reader"]
        recovered = self.open_shard(tmp_path)
        assert recovered.last_recovery.in_doubt == {}
        recovered.durable.close()


class TestDoubleDaemonGuard:
    def test_second_daemon_on_same_directory_exits_2(self, tmp_path):
        durable = tmp_path / "wal"

        async def scenario(daemon, client):
            env = dict(os.environ, PYTHONPATH=REPO_SRC)
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "serve", "--shards", "2",
                 "--port", "0", "--mode", "inline",
                 "--durable", str(durable)],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert proc.returncode == 2
            assert "locked by another process" in proc.stderr
            # the refused daemon must not have broken the live one
            assert (await client.ping())["shards"] == 2

        with_durable_daemon(scenario, durable)

    def test_directory_reusable_after_clean_stop(self, tmp_path):
        durable = tmp_path / "wal"

        async def scenario(daemon, client):
            await client.txn([["counter", "inc"]])

        with_durable_daemon(scenario, durable)
        with_durable_daemon(scenario, durable)

        async def read(daemon, client):
            assert await client.txn([["counter", "get"]]) == [2]

        with_durable_daemon(read, durable)
