"""ShardState: waves, the 2PC participant half, the windowed conformance
gate with verified rollover, and determinism (``src/repro/serve/shard.py``).
"""

import gc
import random
import weakref

import pytest

from repro.core.logs import EMPTY_GLOBAL, EMPTY_LOCAL
from repro.core.ops import Op, intern_stats, payload_of
from repro.core.spec import RebasedStateSpec, shared_movers
from repro.durable.recovery import open_durable_shard
from repro.serve.shard import (
    ShardConfig,
    ShardState,
    handle_shard_request,
    make_serve_spec,
)
from repro.serve.sharding import commit_order, make_shard_scheduler, shard_seed


def _state(**overrides) -> ShardState:
    return ShardState(ShardConfig(**overrides))


def _wave(state, *txns):
    items = [{"id": f"t{i}", "ops": list(ops), "attempts": 0}
             for i, ops in enumerate(txns)]
    return state.execute_wave(items)


def test_wave_commits_and_returns_results():
    state = _state()
    outcomes = _wave(
        state,
        [["kvmap", "put", "k", 41]],
        [["counter", "inc"], ["counter", "get"]],
    )
    assert all(o.ok for o in outcomes)
    # read-your-commit across waves: the get sees the earlier put
    (read,) = _wave(state, [["kvmap", "get", "k"]])
    assert read.ok and read.results == (41,)
    assert dict(state.registry.counter_values())["serve.txn.committed"] == 3


def test_wave_rejects_malformed_ops_as_protocol_errors():
    state = _state()
    outcomes = _wave(
        state,
        [["kvmap", "put", "k"]],          # wrong arity
        [["nosuchspace", "get", "k"]],    # unknown space
        [["kvmap", "get", "k"]],          # fine
    )
    assert [o.ok for o in outcomes] == [False, False, True]
    assert all(o.kind == "protocol" for o in outcomes[:2])
    assert not outcomes[0].retry and not outcomes[1].retry


#: one op per wire rule it breaks; validation rejects each before any
#: machine sees it
BAD_ARGUMENTS = {
    "object-value": ["kvmap", "put", "k1", {"a": 1}],
    "array-value": ["kvmap", "put", "k1", [1, 2]],
    "nan-value": ["kvmap", "put", "k1", float("nan")],
    "infinite-value": ["kvmap", "put", "k1", float("inf")],
    "bool-key": ["kvmap", "get", True],
    "object-element": ["queue", "enq", {"a": 1}],
    "string-counter-add": ["counter", "add", "5"],
    "float-counter-add": ["counter", "add", 1.5],
    "string-amount": ["bank", "deposit", "acct", "5"],
    "negative-amount": ["bank", "deposit", "acct", -5],
    "zero-amount": ["bank", "withdraw", "acct", 0],
    "bool-amount": ["bank", "deposit", "acct", True],
}


@pytest.mark.parametrize("bad", list(BAD_ARGUMENTS.values()), ids=list(BAD_ARGUMENTS))
def test_bad_argument_values_are_protocol_errors_before_execution(bad):
    """A wave is answered per transaction: the bad one gets a ``protocol``
    reply, its valid sibling commits, no thread is stranded, and the next
    checkpoint gates."""
    state = _state()
    reply = handle_shard_request(state, {
        "id": 1, "method": "wave",
        "txns": [{"id": "good", "ops": [["kvmap", "put", "k9", 1]], "attempts": 0},
                 {"id": "bad", "ops": [["kvmap", "get", "k9"], bad], "attempts": 0}],
    })
    assert reply["ok"], reply
    outcomes = {o["id"]: o for o in reply["outcomes"]}
    assert outcomes["good"]["ok"]
    assert outcomes["bad"]["kind"] == "protocol" and not outcomes["bad"]["retry"]
    assert state.runtime.active_tids == set()
    checkpoint = state.maybe_checkpoint()
    assert checkpoint is not None and checkpoint["ok"], checkpoint
    assert state.prepare("x1", [bad])["kind"] == "protocol"
    assert not state.prepared and state.runtime.active_tids == set()


def test_valid_scalars_pass_the_wire_rules():
    state = _state()
    outcomes = _wave(
        state,
        [["kvmap", "put", 7, None], ["kvmap", "put", "s", 2.5],
         ["kvmap", "put", "b", False], ["kvmap", "put", "t", "text"]],
        [["queue", "enq", 1.25], ["counter", "add", -3], ["bank", "deposit", 4, 1]],
    )
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]


def test_rejected_sibling_leaves_a_durable_shard_recoverable(tmp_path):
    """The lost-sibling sequence: a valid put shares a wave with a
    transaction whose last op carries an object value.  The put must be
    acked and logged with the wave, so the next wave's read of it is
    durable together with its source, and a crash recovers."""
    config = ShardConfig(root_seed=3, durable_dir=str(tmp_path / "shard"))
    state = open_durable_shard(config)
    first = _wave(
        state,
        [["kvmap", "put", "k9", 1]],
        [["kvmap", "get", "k9"], ["kvmap", "put", "k1", {"a": 1}]],
    )
    assert sorted((o.txn_id, o.ok, o.kind) for o in first) == [
        ("t0", True, None), ("t1", False, "protocol"),
    ]
    assert state.maybe_checkpoint()["ok"]
    (read,) = _wave(state, [["kvmap", "get", "k9"]])
    assert read.ok and read.results == (1,)
    state.durable.crash()
    recovered = open_durable_shard(config)
    assert recovered.last_recovery.replayed_commits == 2
    assert recovered.last_recovery.conformance_ok
    recovered.durable.close()


def test_a_long_transaction_commits_beside_a_short_one():
    """``tx(*calls)`` nests one ``Seq`` per op; a 600-op transaction must
    step, commit and be gated like any other."""
    state = _state()
    long_ops = [["kvmap", "put", f"k{i}", i] for i in range(300)]
    long_ops += [["kvmap", "get", f"k{i}"] for i in range(300)]
    reply = handle_shard_request(state, {
        "id": 1, "method": "wave",
        "txns": [{"id": "long", "ops": long_ops, "attempts": 0},
                 {"id": "short", "ops": [["counter", "inc"]], "attempts": 0}],
    })
    assert reply["ok"], reply
    outcomes = {o["id"]: o for o in reply["outcomes"]}
    assert outcomes["long"]["ok"] and outcomes["short"]["ok"]
    assert outcomes["long"]["results"][300:] == list(range(300))
    assert state.maybe_checkpoint()["ok"]
    assert state.runtime.active_tids == set()


def test_2pc_prepare_commit_makes_effects_visible():
    state = _state()
    reply = state.prepare("x1", [["kvmap", "put", "k", 7]])
    assert reply["ok"]
    assert "x1" in state.prepared
    assert state.commit_prepared("x1")["ok"]
    assert not state.prepared
    (read,) = _wave(state, [["kvmap", "get", "k"]])
    assert read.ok and read.results == (7,)


def test_2pc_abort_discards_effects():
    state = _state()
    assert state.prepare("x1", [["kvmap", "put", "k", 7]])["ok"]
    assert state.abort_prepared("x1")["ok"]
    (read,) = _wave(state, [["kvmap", "get", "k"]])
    assert read.ok and read.results == (None,)


def test_2pc_protocol_errors():
    state = _state()
    assert state.prepare("x1", [["kvmap", "put", "k", 1]])["ok"]
    dup = state.prepare("x1", [["kvmap", "put", "k", 2]])
    assert not dup["ok"] and dup["kind"] == "protocol"
    missing = state.commit_prepared("never-prepared")
    assert not missing["ok"] and missing["kind"] == "protocol"
    assert state.abort_prepared("x1")["ok"]


def test_parked_prepare_blocks_conflicting_wave_until_phase_two():
    """A prepared sub-txn's pushed-uncommitted entries are the 2PC locks:
    a conflicting wave transaction is requeued (never committed past the
    lock, never permanently aborted on first contact), and commits once
    phase 2 lands."""
    state = _state()
    assert state.prepare("x1", [["kvmap", "put", "k", 1]])["ok"]
    (blocked,) = _wave(state, [["kvmap", "put", "k", 2]])
    assert not blocked.ok and blocked.retry
    # stalled waves are not charged against the cross-wave budget
    assert blocked.attempts == 0
    assert state.commit_prepared("x1")["ok"]
    (retried,) = _wave(state, [["kvmap", "put", "k", 2]])
    assert retried.ok
    (read,) = _wave(state, [["kvmap", "get", "k"]])
    assert read.results == (2,)


def test_conformance_gate_clean_after_traffic():
    state = _state()
    _wave(state, [["kvmap", "put", "a", 1]], [["bank", "deposit", "acct", 5]])
    assert state.prepare("x1", [["counter", "inc"]])["ok"]
    assert state.commit_prepared("x1")["ok"]
    verdict = state.run_conformance()
    assert verdict["ok"] and verdict["failures"] == []
    assert verdict["window_commits"] == 3


def test_windowed_rollover_rebases_spec_and_preserves_state():
    state = _state(conformance_window=2)
    _wave(state, [["kvmap", "put", "a", 1]], [["kvmap", "put", "b", 2]])
    checkpoint = state.maybe_checkpoint()
    assert checkpoint is not None and checkpoint["ok"]
    assert isinstance(state.runtime.spec, RebasedStateSpec)
    assert state.runtime.history.commit_count() == 0
    assert len(state.runtime.machine.global_log) == 0
    counters = dict(state.registry.counter_values())
    assert counters["serve.conformance.rollovers"] == 1
    # committed state survives the rollover
    outcomes = _wave(state, [["kvmap", "get", "a"], ["kvmap", "get", "b"]])
    assert outcomes[0].results == (1, 2)
    # and the next window gates clean on the rebased spec
    assert state.run_conformance()["ok"]


def test_checkpoint_deferred_while_prepared_parked():
    state = _state(conformance_window=1)
    _wave(state, [["kvmap", "put", "a", 1]])
    assert state.prepare("x1", [["kvmap", "put", "b", 2]])["ok"]
    assert state.maybe_checkpoint() is None
    assert state.commit_prepared("x1")["ok"]
    assert state.maybe_checkpoint() is not None


def test_quiescent_wave_rolls_over_whatever_the_window():
    """Gate + rollover run at every quiescent wave boundary, so the log
    a transaction PULLs from holds about one wave, not a whole window."""
    state = _state(conformance_window=64)
    for value in range(3):
        _wave(state, [["kvmap", "put", "a", value]], [["counter", "inc"]])
        checkpoint = state.maybe_checkpoint()
        assert checkpoint is not None and checkpoint["ok"]
        assert checkpoint["window_commits"] == 2
        assert len(state.runtime.machine.global_log) == 0
        assert state.runtime.history.records == ()
    counters = dict(state.registry.counter_values())
    assert counters["serve.conformance.windows"] == 3
    assert counters["serve.conformance.rollovers"] == 3
    # a wave that committed nothing leaves nothing to gate
    assert state.maybe_checkpoint() is None
    (read,) = _wave(state, [["kvmap", "get", "a"], ["counter", "get"]])
    assert read.results == (2, 3)


def test_mover_pairs_evaluated_before_a_rollover_hit_after_it():
    state = _state()
    _wave(state, [["counter", "inc"]], [["counter", "inc"]],
          [["kvmap", "put", "k", 1]], [["kvmap", "get", "k"]])
    memo = state.runtime.machine.movers
    left, comm = dict(memo._left), dict(memo._comm)
    assert left or comm, "the wave consulted no mover pair"
    assert state.maybe_checkpoint()["ok"]
    assert isinstance(state.runtime.spec, RebasedStateSpec)
    # the rebased spec forwards movers to its base, so it shares the memo
    assert shared_movers(state.runtime.spec) is memo
    assert state.runtime.machine.movers is memo
    evaluated = []
    oracle = memo.spec
    oracle.left_mover = lambda *ops: evaluated.append(ops)
    oracle.commutes = lambda *ops: evaluated.append(ops)
    try:
        assert all(memo.left_mover_pid(*pair) == got for pair, got in left.items())
        assert all(
            memo.commutes(Op(*payload_of(p1), -1), Op(*payload_of(p2), -2)) == got
            for (p1, p2), got in comm.items()
        )
    finally:
        del oracle.left_mover, oracle.commutes
    assert evaluated == []


def _empty_log_slots():
    return len(EMPTY_LOCAL._proj or ()) + len(EMPTY_GLOBAL._proj or ())


def test_rollovers_free_rebased_specs_and_denotation_caches(monkeypatch):
    """Each rollover replaces the spec and its denotation cache; the old
    ones must be collectable, or a per-wave rollover leaks one of each
    per wave.  Nor may what they computed outlive them: no memo entry
    piles up on the shared empty-log singletons, and no wave's program
    stays reachable once its wave has rolled over.
    ``conformance_window=1`` rolls over every wave either way."""
    programs = []
    build = ShardState._program

    def capture(self, ops):
        program = build(self, ops)
        # the machine steps the body, not the ``tx`` node around it
        programs.extend((weakref.ref(program), weakref.ref(program.body)))
        return program

    monkeypatch.setattr(ShardState, "_program", capture)
    state = _state(conformance_window=1)
    specs, caches = [], []
    for value in range(30):
        if value == 15:
            gc.collect()
            slots_at_15 = _empty_log_slots()
        _wave(state, [["kvmap", "put", "k", value]], [["counter", "inc"]])
        assert state.maybe_checkpoint()["ok"]
        specs.append(weakref.ref(state.runtime.spec))
        caches.append(weakref.ref(state.runtime.machine.denots))
    gc.collect()
    assert sum(ref() is not None for ref in specs) <= 2
    assert sum(ref() is not None for ref in caches) <= 2
    assert _empty_log_slots() == slots_at_15
    assert len(programs) == 120
    assert [i for i, ref in enumerate(programs) if ref() is not None] == []
    (read,) = _wave(state, [["kvmap", "get", "k"], ["counter", "get"]])
    assert read.results == (29, 30)


def test_metrics_snapshot_reports_the_intern_tables():
    state = _state()
    _wave(state, [["kvmap", "put", "k", 1]])
    gauges = state.metrics_snapshot()["gauges"]
    assert gauges["intern.payload_classes"] == intern_stats()["intern.payload_classes"]
    assert gauges["intern.code_states"] == intern_stats()["intern.code_states"]
    assert gauges["intern.payload_classes"] >= 1


@pytest.mark.parametrize("seed", [1, 2])
def test_concurrent_enq_and_size_waves_serialize_in_commit_order(seed, tmp_path):
    """Concurrent ``size`` and ``enq`` never commute once the queue is
    longer than the mover oracle's enumeration bound.  A vacuous verdict
    there lets a ``size`` commit after an ``enq`` it did not count, so
    commit order stops being a serialization: a window gated in commit
    order finds no witness, and a recovery replaying the log in commit
    order diverges from the acknowledged results."""
    config = ShardConfig(root_seed=seed, conformance_window=1000,
                         durable_dir=str(tmp_path / "shard"))
    state = open_durable_shard(config)
    rng = random.Random(seed)
    committed = 0
    for wave in range(16):
        txns = [
            [["queue", "enq", rng.randrange(100)]] if rng.random() < 0.6
            else [["queue", "size"]]
            for _ in range(4)
        ]
        outcomes = _wave(state, *txns)
        committed += sum(o.ok for o in outcomes)
        checkpoint = state.maybe_checkpoint()
        assert checkpoint is None or checkpoint["ok"], (wave, checkpoint)
    assert state.conformance_failure_log == []
    state.durable.crash()
    recovered = open_durable_shard(config)
    assert recovered.last_recovery.replayed_commits == committed
    assert recovered.last_recovery.conformance_ok
    recovered.durable.close()


@pytest.mark.parametrize("strategy", ["encounter", "tl2"])
def test_hot_key_windows_are_opacity_checked(strategy):
    """Contention the uniform loadgen never makes: 256 get+put
    transactions over 2 hot keys in waves of 32, requeued items
    resubmitted.  Every gate window holds far more than seven commits, so
    each one is decided through the commit-order witness — and an
    opaque strategy passes it."""
    from repro.checking.tms2 import tms2_stats_snapshot

    rng = random.Random(0)
    state = _state(strategy=strategy)
    queue = [
        {"id": f"t{i}", "attempts": 0,
         "ops": [["kvmap", "get", rng.choice("ab")],
                 ["kvmap", "put", rng.choice("ab"), i]]}
        for i in range(256)
    ]
    before = tms2_stats_snapshot()
    verdicts, committed = [], 0
    while queue:
        batch, queue = queue[:32], queue[32:]
        by_id = {item["id"]: item for item in batch}
        for outcome in state.execute_wave(batch):
            committed += outcome.ok
            if outcome.retry:
                queue.append({**by_id[outcome.id], "attempts": outcome.attempts})
        verdict = state.maybe_checkpoint()
        if verdict is not None:
            verdicts.append(verdict)
    after = tms2_stats_snapshot()
    assert committed == 256
    assert sum(v["window_commits"] for v in verdicts) == 256
    assert all(v["ok"] for v in verdicts), [v["failures"] for v in verdicts]
    delta = {name: after[name] - before[name] for name in after}
    assert delta["opacity.tms2.checks"] == len(verdicts)
    assert delta["opacity.tms2.witness_only"] == sum(
        v["window_commits"] > 6 for v in verdicts
    ) >= 1
    # aborted attempts were validated too, not just the commits
    assert delta["opacity.tms2.allowed_calls"] > delta["opacity.tms2.steps"]


def test_wave_dispatch_via_shard_request():
    state = _state(conformance_window=2)
    reply = handle_shard_request(
        state,
        {
            "id": 9,
            "method": "wave",
            "txns": [
                {"id": "a", "ops": [["kvmap", "put", "k", 1]], "attempts": 0},
                {"id": "b", "ops": [["kvmap", "get", "k"]], "attempts": 0},
            ],
        },
    )
    assert reply["id"] == 9 and reply["ok"]
    assert [o["ok"] for o in reply["outcomes"]] == [True, True]
    # the gate is its own request, sent after the wave's replies
    assert "checkpoint" not in reply
    gate = handle_shard_request(state, {"id": 10, "method": "checkpoint"})
    assert gate["id"] == 10 and gate["ok"]
    assert gate["checkpoint"]["ok"] and gate["checkpoint"]["window_commits"] == 2
    # nothing committed since: no gate runs
    idle = handle_shard_request(state, {"id": 11, "method": "checkpoint"})
    assert idle["ok"] and idle["checkpoint"] is None
    bad = handle_shard_request(state, {"id": 1, "method": "nope"})
    assert not bad["ok"] and bad["kind"] == "protocol"


def test_identical_configs_are_deterministic():
    """The whole shard is a pure function of (seed, workload): same
    config + same request sequence -> same outcomes, same history."""

    def drive(state):
        replies = []
        replies.extend(o.to_reply() for o in _wave(
            state,
            [["kvmap", "put", "a", 1], ["counter", "inc"]],
            [["kvmap", "put", "a", 2]],
            [["bank", "deposit", "acct", 9]],
        ))
        replies.append(state.prepare("x1", [["kvmap", "put", "b", 3]]))
        replies.append(state.commit_prepared("x1"))
        replies.extend(o.to_reply() for o in _wave(
            state, [["kvmap", "get", "a"], ["kvmap", "get", "b"]]
        ))
        replies.append(state.stats())
        return replies

    one = drive(_state(root_seed=11))
    two = drive(_state(root_seed=11))
    assert one == two


def test_seed_derivations_are_stable_and_distinct():
    assert shard_seed(0, 0) == shard_seed(0, 0)
    assert shard_seed(0, 0) != shard_seed(0, 1)
    assert shard_seed(1, 0) != shard_seed(0, 0)
    # commit order is a pure function of (seed, txn id), not call order
    order = commit_order(7, "x1", [2, 0, 1])
    assert order == commit_order(7, "x1", [2, 0, 1])
    assert sorted(order) == [0, 1, 2]
    # per-shard schedulers exist for every registered policy
    for name in ("random", "roundrobin", "nemesis"):
        assert make_shard_scheduler(name, 0, 0) is not None


def test_serve_spec_namespaces_all_four_spaces():
    spec = make_serve_spec()
    calls = {
        "kvmap.put": ("k", 1),
        "counter.inc": (),
        "bank.deposit": ("acct", 1),
        "queue.enq": (1,),
    }
    footprints = {
        method: spec.footprint(method, args) for method, args in calls.items()
    }
    assert all(footprints.values())
    # cross-component operations never share footprint keys
    flat = [key for keys in footprints.values() for key in keys]
    assert len(flat) == len(set(flat))
