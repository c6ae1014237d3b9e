"""Crash recovery of a durable shard: replay through the machine's own
rules, the divergence/conformance oracles, in-doubt 2PC resolution, the
seeded durable chaos sweep, and the ``repro log`` inspection command
(``src/repro/durable/recovery.py``, ``src/repro/durable/chaos.py``,
``src/repro/durable/inspect.py``, ``src/repro/cli.py``).
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.cli import main as cli_main
from repro.durable.records import (
    RECORD_MAGIC,
    SegmentCorruption,
    encode_record,
    scan_frames,
)
from repro.durable.recovery import RecoveryError, open_durable_shard
from repro.durable.store import SegmentStore
from repro.serve.shard import ShardConfig


def config_for(directory, window=6, seed=3):
    return ShardConfig(
        index=0, shards=1, strategy="encounter", root_seed=seed,
        conformance_window=window, durable_dir=str(directory),
    )


def drive(state, waves, offset=0):
    """Commit ``waves`` single-txn waves of one put + one inc each."""
    for w in range(waves):
        items = [{"id": f"w{offset + w}",
                  "ops": [["kvmap", "put", f"k{offset + w}", offset + w],
                          ["counter", "inc"]],
                  "attempts": 0}]
        outcomes = state.execute_wave(items)
        assert all(o.ok for o in outcomes)
        state.maybe_checkpoint()


def probe(state, key):
    out = state.execute_wave(
        [{"id": "probe", "ops": [["counter", "get"], ["kvmap", "get", key]],
          "attempts": 0}]
    )
    assert out[0].ok
    return out[0].results


def run_cli(argv):
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


class TestRecoveryEdges:
    def test_empty_directory_recovers_to_fresh_state(self, tmp_path):
        state = open_durable_shard(config_for(tmp_path / "s"))
        report = state.last_recovery
        assert report.replayed_commits == 0 and report.conformance_ok
        assert probe(state, "k0") == (0, None)
        state.durable.close()

    def test_crash_and_recover_replays_acknowledged_state(self, tmp_path):
        cfg = config_for(tmp_path / "s", window=50)  # no rollover: pure replay
        state = open_durable_shard(cfg)
        drive(state, 5)
        state.durable.crash()

        recovered = open_durable_shard(cfg)
        report = recovered.last_recovery
        assert report.replayed_commits == 5
        assert report.snapshot_watermark == 0
        assert report.conformance_ok
        assert probe(recovered, "k4") == (5, 4)
        recovered.durable.close()

    def test_snapshot_only_directory(self, tmp_path):
        """A crash right after snapshot+compaction leaves state only in
        the checkpoint; recovery must serve entirely from it."""
        cfg = config_for(tmp_path / "s", window=4)
        state = open_durable_shard(cfg)
        drive(state, 4)  # window hit -> rollover -> snapshot + compaction
        assert state.durable.snapshot_doc["watermark"] > 0
        state.durable.crash()

        recovered = open_durable_shard(cfg)
        assert recovered.last_recovery.replayed_commits == 0
        assert recovered.last_recovery.snapshot_watermark > 0
        assert probe(recovered, "k3") == (4, 3)
        recovered.durable.close()

    def test_rolls_over_every_wave_but_snapshots_once_per_window(self, tmp_path):
        cfg = config_for(tmp_path / "s", window=4)
        state = open_durable_shard(cfg)
        before = dict(state.registry.counter_values())
        drive(state, 10)
        after = dict(state.registry.counter_values())

        def grew(name):
            return after.get(name, 0) - before.get(name, 0)

        assert grew("serve.conformance.rollovers") == 10
        assert grew("durable.snapshot.writes") == 2  # at commits 4 and 8
        assert state.durable.snapshot_doc["watermark"] == 8
        assert state.stats()["global_log"] == 0
        state.durable.close()

    def test_sigkill_between_two_snapshots_recovers_clean(self, tmp_path):
        """A process killed two commits past its last snapshot: recovery
        starts from that snapshot and replays exactly the two-commit tail
        through the per-commit gate."""
        cfg = config_for(tmp_path / "s", window=4)
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)

        def serve_then_hang():
            state = open_durable_shard(cfg)
            drive(state, 10)
            sender.send(state.durable.snapshot_doc["watermark"])
            signal.pause()

        worker = context.Process(target=serve_then_hang, daemon=True)
        worker.start()
        assert receiver.poll(60), "worker never finished its waves"
        assert receiver.recv() == 8
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10)
        assert worker.exitcode == -signal.SIGKILL

        recovered = open_durable_shard(cfg)
        report = recovered.last_recovery
        assert report.snapshot_watermark == 8
        assert report.replayed_commits == 2
        assert report.conformance_ok
        assert recovered.conformance_failure_log == []
        assert probe(recovered, "k9") == (10, 9)
        assert probe(recovered, "k3") == (10, 3)
        recovered.durable.close()

    def test_recovered_shard_continues_committing(self, tmp_path):
        cfg = config_for(tmp_path / "s")
        state = open_durable_shard(cfg)
        drive(state, 3)
        state.durable.crash()
        recovered = open_durable_shard(cfg)
        drive(recovered, 3, offset=3)
        assert probe(recovered, "k5") == (6, 5)
        recovered.durable.crash()
        third = open_durable_shard(cfg)
        assert probe(third, "k5") == (6, 5)
        third.durable.close()

    def test_divergent_recorded_results_refused(self, tmp_path):
        """Tampering with a commit record's acknowledged results must
        fail the divergence oracle, not silently re-serve bad data."""
        cfg = config_for(tmp_path / "s", window=50)
        state = open_durable_shard(cfg)
        drive(state, 3)
        state.durable.crash()

        directory = str(tmp_path / "s")
        seg = sorted(n for n in os.listdir(directory) if n.endswith(".seg"))[-1]
        path = os.path.join(directory, seg)
        result = scan_frames(open(path, "rb").read())
        frames = []
        for _off, record in result.records:
            if record.get("t") == "commit" and record["txn"] == "w1":
                record = {**record, "results": [None, 777]}  # forged ack
            frames.append(encode_record(record))
        open(path, "wb").write(b"".join(frames))

        with pytest.raises(RecoveryError, match="divergence"):
            open_durable_shard(cfg)

    def test_corrupt_non_tail_segment_refused(self, tmp_path):
        cfg = config_for(tmp_path / "s", window=50)
        state = open_durable_shard(cfg)
        state.durable.segment_bytes = 192  # force rotation mid-run
        drive(state, 8)
        assert len(state.durable.segment_paths()) >= 2
        state.durable.crash()

        directory = str(tmp_path / "s")
        segs = sorted(n for n in os.listdir(directory) if n.endswith(".seg"))
        with open(os.path.join(directory, segs[0]), "r+b") as handle:
            handle.seek(20)
            byte = handle.read(1)
            handle.seek(20)
            handle.write(bytes([byte[0] ^ 0x10]))
        with pytest.raises(SegmentCorruption):
            open_durable_shard(cfg)


class TestInDoubt:
    def prepare_two(self, tmp_path):
        cfg = config_for(tmp_path / "shard-000", window=50)
        state = open_durable_shard(cfg)
        assert state.prepare("x-decided", [["kvmap", "put", "d", 1]])["ok"]
        assert state.prepare("x-undecided", [["kvmap", "put", "u", 2]])["ok"]
        return cfg, state

    def test_logged_decision_commits_presumed_abort_otherwise(self, tmp_path):
        cfg, state = self.prepare_two(tmp_path)
        coord = SegmentStore(str(tmp_path / "coord"))
        coord.append({"t": "decide", "txn": "x-decided", "outcome": "commit",
                      "participants": [0]})
        coord.sync()
        coord.close()
        state.durable.crash()

        recovered = open_durable_shard(cfg)
        report = recovered.last_recovery
        assert report.in_doubt == {"x-decided": "commit",
                                   "x-undecided": "abort"}
        out = recovered.execute_wave(
            [{"id": "probe",
              "ops": [["kvmap", "get", "d"], ["kvmap", "get", "u"]],
              "attempts": 0}]
        )
        assert out[0].results == (1, None)
        recovered.durable.close()

    def test_no_decision_log_presumes_abort(self, tmp_path):
        cfg, state = self.prepare_two(tmp_path)
        state.durable.crash()
        recovered = open_durable_shard(cfg)
        assert recovered.last_recovery.in_doubt == {
            "x-decided": "abort", "x-undecided": "abort"
        }
        recovered.durable.close()

    def test_resolutions_are_themselves_durable(self, tmp_path):
        cfg, state = self.prepare_two(tmp_path)
        state.durable.crash()
        first = open_durable_shard(cfg)
        first.durable.crash()  # crash right after resolving
        second = open_durable_shard(cfg)
        # nothing left in doubt: the first recovery persisted its answers
        assert second.last_recovery.in_doubt == {}
        assert not second.prepared
        second.durable.close()


class TestDurableChaos:
    def test_tiny_sweep_recovers_every_round(self):
        from repro.durable.chaos import ROUND_KINDS, run_durable_chaos

        report = run_durable_chaos(seed=11, tiny=True)
        assert report.ok, report.render()
        assert [r["kind"] for r in report.rounds] == list(ROUND_KINDS)

    def test_cli_chaos_durable_exit_codes(self, tmp_path):
        from repro.durable.chaos import ROUND_KINDS

        out = tmp_path / "chaos.json"
        code = run_cli(["chaos", "--durable", "--tiny", "--seed", "4",
                        "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        # --tiny runs every round kind once
        assert document["ok"] and len(document["rounds"]) == len(ROUND_KINDS)


class TestLogCommand:
    def make_dir(self, tmp_path):
        cfg = config_for(tmp_path / "s", window=4)
        state = open_durable_shard(cfg)
        drive(state, 6)
        state.durable.close()
        return str(tmp_path / "s")

    def test_human_and_json_agree(self, tmp_path, capsys):
        directory = self.make_dir(tmp_path)
        assert run_cli(["log", directory]) == 0
        human = capsys.readouterr().out
        assert "verdict: ok" in human
        assert run_cli(["log", directory, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["by_type"]["commit"] >= 2
        assert report["snapshot"]["watermark"] > 0
        assert report["last_lsn"] >= report["snapshot"]["watermark"]

    def test_torn_tail_reported_recoverable(self, tmp_path, capsys):
        directory = self.make_dir(tmp_path)
        seg = sorted(n for n in os.listdir(directory) if n.endswith(".seg"))[-1]
        with open(os.path.join(directory, seg), "ab") as handle:
            handle.write(RECORD_MAGIC + b"\x00")
        assert run_cli(["log", directory, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["torn_tail"]["dropped_bytes"] == 5

    def test_refusal_grade_damage_exits_2(self, tmp_path, capsys):
        directory = self.make_dir(tmp_path)
        seg = sorted(n for n in os.listdir(directory) if n.endswith(".seg"))[-1]
        path = os.path.join(directory, seg)
        with open(path, "r+b") as handle:
            handle.seek(16)
            byte = handle.read(1)
            handle.seek(16)
            handle.write(bytes([byte[0] ^ 0x08]))
        assert run_cli(["log", directory]) == 2
        assert "REFUSE" in capsys.readouterr().out

    def test_inspection_never_mutates(self, tmp_path):
        directory = self.make_dir(tmp_path)
        seg = sorted(n for n in os.listdir(directory) if n.endswith(".seg"))[-1]
        path = os.path.join(directory, seg)
        with open(path, "ab") as handle:
            handle.write(b"junk")
        size = os.path.getsize(path)
        run_cli(["log", directory])
        assert os.path.getsize(path) == size  # read-only: no truncation
