"""Durability chaos: kill, corrupt, recover, verify (``repro chaos
--durable``).

Each seeded round builds a durable shard in a scratch directory, drives
acknowledged traffic against it while mirroring every ack into a model,
then crashes it one of several ways and recovers.  Two oracles:

* **no acknowledged loss** — after recovery, every acknowledged ``put``
  reads back its value and the counter covers every acknowledged
  ``inc``.  For in-process crashes the crash points are ack boundaries,
  so the recovered state must equal the model exactly; for real
  ``SIGKILL`` rounds the kill races the side-channel ack log, so the
  recovered state must *cover* the model (durable-but-unacked work may
  additionally survive — that is the correct direction: fsync before
  ack);
* **refusal on unsound damage** — a corruption with acknowledged
  records beyond it (mid-segment bit flip) must make recovery refuse
  (:class:`~repro.durable.records.SegmentCorruption`), never serve a
  silently-wrong state.  Torn tails and trailing garbage must instead
  recover everything up to the damage.

Every recovery passes through :func:`~repro.durable.recovery.
open_durable_shard`, so the push/pull conformance gate re-adjudicates
each recovered history — the verdicts stay anchored in the paper's
commit criteria, exactly like the nemesis chaos suite.
"""

from __future__ import annotations

import json
import os
import random
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.durable.records import SegmentCorruption
from repro.durable.recovery import open_durable_shard
from repro.durable.store import SEGMENT_RE, SegmentStore
from repro.fuzz.mutators import mutate_segment_bytes

#: the crash shapes one round can take, cycled deterministically
ROUND_KINDS = (
    "crash_after_ack",   # drop the store as SIGKILL would, at an ack boundary
    "torn_tail",         # + a partial frame appended to the last segment
    "garbage_tail",      # + non-frame noise appended to the last segment
    "bitflip_refusal",   # bit flip with valid records beyond -> must refuse
    "kill_process",      # real SIGKILL of a forked worker mid-traffic
    "in_doubt",          # prepared 2PC sub-txn, decision log adjudicates
    "commit_unflushed",  # acked 2PC commit record still buffered at the crash
    "commit_rides_wave", # a wave reading the 2PC write fsyncs its record first
)

#: small segments so every round exercises rotation, small window so
#: snapshots/compaction happen mid-round
SEGMENT_BYTES = 4096
WINDOW = 8


@dataclass
class DurableChaosReport:
    """JSON-safe outcome of one ``run_durable_chaos`` suite."""

    seed: int
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    elapsed_sec: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "rounds": list(self.rounds),
            "failures": list(self.failures),
            "elapsed_sec": round(self.elapsed_sec, 3),
        }

    def render(self) -> str:
        lines = []
        for row in self.rounds:
            status = "ok  " if row["ok"] else "FAIL"
            lines.append(
                f"{status} round {row['round']:<2} {row['kind']:<17} "
                f"{row['detail']}"
            )
        verdict = (
            "durable chaos: all rounds recovered clean"
            if self.ok
            else f"durable chaos: {len(self.failures)} failure(s)"
        )
        lines.append(f"{verdict} (seed {self.seed}, {self.elapsed_sec:.1f}s)")
        return "\n".join(lines)


def _shard_config(directory: str, seed: int):
    from repro.serve.shard import ShardConfig

    return ShardConfig(
        index=0,
        shards=1,
        strategy="encounter",
        scheduler="random",
        root_seed=seed,
        conformance_window=WINDOW,
        durable_dir=directory,
    )


def _drive(state, rng: random.Random, waves: int, tag: str) -> Dict[str, Any]:
    """Acknowledged traffic: distinct-key puts plus counter incs, mirrored
    into the model the recovery oracle replays against."""
    model: Dict[str, Any] = {"puts": {}, "incs": 0}
    txn = 0
    for _wave in range(waves):
        items = []
        for _ in range(1 + rng.randrange(3)):
            txn += 1
            key = f"{tag}-{txn}"
            items.append(
                {
                    "id": f"{tag}.{txn}",
                    "ops": [["kvmap", "put", key, txn], ["counter", "inc"]],
                    "attempts": 0,
                }
            )
        outcomes = state.execute_wave(items)
        for item, outcome in zip(items, outcomes):
            if outcome.ok:  # the ack: the wave fsync'd before returning
                model["puts"][item["ops"][0][2]] = item["ops"][0][3]
                model["incs"] += 1
        state.maybe_checkpoint()
    return model


def _read_back(state, model: Dict[str, Any], exact: bool) -> Optional[str]:
    """The no-acknowledged-loss oracle; returns a failure message or
    ``None``.  ``exact`` additionally pins the counter to the model (the
    crash happened at an ack boundary, so nothing extra may survive)."""
    ops = [["kvmap", "get", key] for key in sorted(model["puts"])]
    ops.append(["counter", "get"])
    outcomes = state.execute_wave([{"id": "oracle", "ops": ops, "attempts": 0}])
    if not outcomes or not outcomes[0].ok:
        return f"oracle read failed: {outcomes[0].error if outcomes else 'no outcome'}"
    results = list(outcomes[0].results)
    counter = results.pop()
    for key, got in zip(sorted(model["puts"]), results):
        if got != model["puts"][key]:
            return f"acknowledged put {key!r}={model['puts'][key]} read back {got!r}"
    if exact and counter != model["incs"]:
        return f"counter {counter} != {model['incs']} acknowledged incs"
    if not exact and counter < model["incs"]:
        return f"counter {counter} lost acknowledged incs (< {model['incs']})"
    return None


def _last_segment(directory: str) -> str:
    names = sorted(n for n in os.listdir(directory) if SEGMENT_RE.match(n))
    return os.path.join(directory, names[-1])


def _first_data_segment(directory: str) -> Optional[str]:
    """A segment that still has records after its first frame *and* is
    not the final segment — damage there must trigger refusal."""
    names = sorted(n for n in os.listdir(directory) if SEGMENT_RE.match(n))
    for name in names[:-1]:
        path = os.path.join(directory, name)
        if os.path.getsize(path) > 256:
            return path
    return None


def _kill_worker(config_dict: Dict[str, Any], acked_path: str) -> None:
    """Forked target for kill rounds: serve forever, fsyncing the ack
    side-log after every wave, until SIGKILL arrives."""
    config_dict = dict(config_dict)
    from repro.serve.shard import ShardConfig

    state = open_durable_shard(ShardConfig.from_dict(config_dict))
    rng = random.Random(config_dict["root_seed"] ^ 0xD06)
    txn = 0
    with open(acked_path, "a", encoding="utf-8") as acked:
        while True:
            items = []
            for _ in range(1 + rng.randrange(3)):
                txn += 1
                items.append(
                    {
                        "id": f"kill.{txn}",
                        "ops": [["kvmap", "put", f"kill-{txn}", txn],
                                ["counter", "inc"]],
                        "attempts": 0,
                    }
                )
            outcomes = state.execute_wave(items)
            state.maybe_checkpoint()
            for item, outcome in zip(items, outcomes):
                if outcome.ok:
                    acked.write(
                        json.dumps(
                            {"key": item["ops"][0][2], "value": item["ops"][0][3]}
                        )
                        + "\n"
                    )
            acked.flush()
            os.fsync(acked.fileno())


def _run_round(index: int, kind: str, seed: int, base_dir: str) -> Dict[str, Any]:
    rng = random.Random((seed << 8) ^ index)
    root = tempfile.mkdtemp(prefix=f"durable-chaos-{index}-", dir=base_dir)
    directory = os.path.join(root, "shard-000")
    config = _shard_config(directory, seed + index)
    row: Dict[str, Any] = {"round": index, "kind": kind, "ok": False}

    if kind == "kill_process":
        return _run_kill_round(row, config, rng, root)

    if kind == "in_doubt":
        return _run_in_doubt_round(row, config, rng, root)

    if kind in ("commit_unflushed", "commit_rides_wave"):
        return _run_unflushed_commit_round(
            row, config, rng, root, ride=kind == "commit_rides_wave"
        )

    state = open_durable_shard(config, segment_bytes=SEGMENT_BYTES)
    model = _drive(state, rng, waves=4 + rng.randrange(4), tag=f"r{index}")
    acked = len(model["puts"])
    if kind == "bitflip_refusal":
        # One more wave with no checkpoint, so the final segment is
        # guaranteed to hold committed frames *after* the byte we flip —
        # the damage must read as mid-segment corruption, not a torn tail.
        state.execute_wave(
            [{"id": f"r{index}.tail", "ops": [["counter", "inc"]], "attempts": 0}]
        )
    state.durable.crash()  # SIGKILL semantics at an ack boundary

    if kind in ("torn_tail", "garbage_tail"):
        path = _last_segment(directory)
        with open(path, "rb") as handle:
            data = handle.read()
        mutated, applied = mutate_segment_bytes(
            data, rng, "torn_append" if kind == "torn_tail" else "garbage_tail"
        )
        with open(path, "wb") as handle:
            handle.write(mutated)
        row["mutation"] = applied
    elif kind == "bitflip_refusal":
        path = _first_data_segment(directory)
        if path is None:
            # Not enough segments rotated to damage a non-final one —
            # flip inside the final segment's *first* frame instead; the
            # frames after it still force refusal.
            path = _last_segment(directory)
        with open(path, "rb") as handle:
            data = handle.read()
        at = 4 + rng.randrange(8)  # inside the first frame's header words
        data = data[:at] + bytes([data[at] ^ 0x40]) + data[at + 1 :]
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            open_durable_shard(config, segment_bytes=SEGMENT_BYTES)
        except SegmentCorruption as exc:
            row.update(
                ok=True,
                detail=f"{acked} acked txns; damage correctly refused: "
                f"{str(exc)[:80]}",
            )
            return row
        row["detail"] = (
            "recovery ACCEPTED a mid-segment bit flip with records beyond it"
        )
        return row

    recovered = open_durable_shard(config, segment_bytes=SEGMENT_BYTES)
    try:
        failure = _read_back(recovered, model, exact=True)
        report = recovered.last_recovery
        if failure is None:
            row.update(
                ok=True,
                detail=f"{acked} acked txns recovered "
                f"(replayed {report.replayed_commits}, watermark "
                f"{report.snapshot_watermark}, torn {report.torn_tail_dropped}B)",
            )
        else:
            row["detail"] = failure
        row["recovery"] = report.to_dict()
    finally:
        recovered.durable.close()
    return row


def _run_kill_round(row, config, rng: random.Random, root: str) -> Dict[str, Any]:
    import multiprocessing

    acked_path = os.path.join(root, "acked.jsonl")
    ctx = multiprocessing.get_context("fork")
    worker = ctx.Process(
        target=_kill_worker, args=(config.to_dict(), acked_path), daemon=True
    )
    worker.start()
    time.sleep(0.3 + rng.random() * 0.4)
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=10)

    model: Dict[str, Any] = {"puts": {}, "incs": 0}
    if os.path.exists(acked_path):
        with open(acked_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                model["puts"][entry["key"]] = entry["value"]
                model["incs"] += 1
    recovered = open_durable_shard(config)
    try:
        # exact=False: the kill races the side-log, so durable-but-unacked
        # work may survive beyond the model (the sound direction)
        failure = _read_back(recovered, model, exact=False)
        report = recovered.last_recovery
        if failure is None:
            row.update(
                ok=True,
                detail=f"SIGKILL'd worker; {len(model['puts'])} acked txns "
                f"recovered (replayed {report.replayed_commits}, watermark "
                f"{report.snapshot_watermark})",
            )
        else:
            row["detail"] = failure
        row["recovery"] = report.to_dict()
    finally:
        recovered.durable.close()
    return row


def _run_in_doubt_round(row, config, rng: random.Random, root: str) -> Dict[str, Any]:
    """Prepare two 2PC sub-txns, log a commit decision for exactly one,
    crash, recover: the decided one must read back, the undecided one
    must be presumed aborted."""
    state = open_durable_shard(config, segment_bytes=SEGMENT_BYTES)
    reply = state.prepare("x-decided", [["kvmap", "put", "decided", 1]])
    assert reply["ok"], reply
    reply = state.prepare("x-undecided", [["kvmap", "put", "undecided", 2]])
    assert reply["ok"], reply
    coord = SegmentStore(os.path.join(root, "coord"))
    coord.append({"t": "decide", "txn": "x-decided", "outcome": "commit"})
    coord.sync()
    coord.close()
    state.durable.crash()

    recovered = open_durable_shard(config, segment_bytes=SEGMENT_BYTES)
    try:
        report = recovered.last_recovery
        outcomes = recovered.execute_wave(
            [{"id": "oracle",
              "ops": [["kvmap", "get", "decided"], ["kvmap", "get", "undecided"]],
              "attempts": 0}]
        )
        got = list(outcomes[0].results)
        expected = [1, None]
        if (
            got == expected
            and report.in_doubt.get("x-decided") == "commit"
            and report.in_doubt.get("x-undecided") == "abort"
        ):
            row.update(
                ok=True,
                detail="in-doubt prepares resolved from the decision log "
                "(1 commit, 1 presumed abort)",
            )
        else:
            row["detail"] = (
                f"in-doubt resolution wrong: reads {got} (want {expected}), "
                f"decisions {report.in_doubt}"
            )
        row["recovery"] = report.to_dict()
    finally:
        recovered.durable.close()
    return row


def _run_unflushed_commit_round(
    row, config, rng: random.Random, root: str, ride: bool
) -> Dict[str, Any]:
    """A participant's 2PC commit record is appended without an fsync.
    Ack the sub-txn the way the daemon does — prepare fsynced, ``decide
    commit`` fsynced in the coordinator log, ``commit_prepared`` run —
    then crash before the shard flushes.  With ``ride`` a wave first
    reads the 2PC write, so its fsync must carry the commit record ahead
    of its own; recovery replays the reader and the result-divergence
    oracle checks it saw the write.  Either way every acked write must
    read back."""
    state = open_durable_shard(config, segment_bytes=SEGMENT_BYTES)
    model = _drive(state, rng, waves=2 + rng.randrange(3), tag=f"r{row['round']}")
    txn, value = "x-acked", 1000 + rng.randrange(1000)
    reply = state.prepare(txn, [["kvmap", "put", "twopc", value], ["counter", "inc"]])
    assert reply["ok"], reply
    coord = SegmentStore(os.path.join(root, "coord"))
    coord.append({"t": "decide", "txn": txn, "outcome": "commit",
                  "participants": [0]})
    coord.sync()
    coord.close()
    state.commit_prepared(txn)
    unsynced = state.durable.unsynced_records
    model["puts"]["twopc"] = value  # the coordinator's ack
    model["incs"] += 1
    read = [value]
    if ride:
        outcomes = state.execute_wave(
            [{"id": "reader", "ops": [["kvmap", "get", "twopc"]], "attempts": 0}]
        )
        read = list(outcomes[0].results) if outcomes[0].ok else outcomes[0].error
    state.durable.crash()

    recovered = open_durable_shard(config, segment_bytes=SEGMENT_BYTES)
    try:
        report = recovered.last_recovery
        failure = _read_back(recovered, model, exact=True)
        # unflushed: the record is lost and the decision log commits the
        # in-doubt prepare; ridden: the wave's fsync persisted it
        want = {} if ride else {txn: "commit"}
        if failure is None and unsynced != 1:
            failure = f"commit_prepared left {unsynced} unsynced records, not 1"
        if failure is None and read != [value]:
            failure = f"the reader saw {read!r}, not the acked {value}"
        if failure is None and report.in_doubt != want:
            failure = f"in-doubt resolutions {report.in_doubt}, want {want}"
        if failure is None:
            source = "the reader's fsync" if ride else "the decision log"
            row.update(
                ok=True,
                detail=f"acked 2pc commit recovered from {source} (replayed "
                f"{report.replayed_commits}, in doubt {len(report.in_doubt)})",
            )
        else:
            row["detail"] = failure
        row["recovery"] = report.to_dict()
    finally:
        recovered.durable.close()
    return row


def run_durable_chaos(
    seed: int = 0,
    rounds: Optional[int] = None,
    tiny: bool = False,
    base_dir: Optional[str] = None,
) -> DurableChaosReport:
    """The suite: ``rounds`` rounds cycling :data:`ROUND_KINDS`."""
    if rounds is None:
        rounds = len(ROUND_KINDS) if tiny else 2 * len(ROUND_KINDS)
    report = DurableChaosReport(seed=seed)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-durable-chaos-") as scratch:
        target = base_dir or scratch
        for index in range(rounds):
            kind = ROUND_KINDS[index % len(ROUND_KINDS)]
            try:
                row = _run_round(index, kind, seed, target)
            except Exception as exc:  # noqa: BLE001 - a round must report
                row = {
                    "round": index, "kind": kind, "ok": False,
                    "detail": f"round raised {type(exc).__name__}: {exc}",
                }
            report.rounds.append(row)
            if not row["ok"]:
                report.failures.append(
                    f"round {index} ({kind}): {row['detail']}"
                )
    report.elapsed_sec = time.perf_counter() - started
    return report
