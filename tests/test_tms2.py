"""Property suite for the TMS2 opacity decision procedure.

Four families, per the decision's soundness/completeness contract:

(a) **witness vs DFS** — on random small histories (terminal states of
    seeded random walks over every registered model-checker scope, via
    the packed-check harness) the commit-order witness alone
    (``max_exhaustive=0``) never accepts a history the exhaustive DFS
    rejects: a witness accept *is* a linearization.  The converse is
    asserted only inside the opaque fragment (``pull_policy="committed"``);
    under ``pull_policy="all"`` a history may linearize in an order other
    than its commit order.

(b) **serial soundness** — histories produced by running workload
    transactions one at a time on the atomic (Figure 3) semantics are
    always TMS2-accepted: a serial committed execution is its own
    linearization.

(c) **fragment 1** — a PULL of a ``gUCmt`` entry is rejected at both
    levels: the :class:`~repro.core.opacity.OpaqueMachine` wrapper raises
    before the move happens (checked live, during the same random walks),
    and a history recording such a dirty read is TMS2-rejected.

(d) **past the exhaustive bound** — the conformance gate decides chaos
    windows of more than six commits through the witness: a dirty reader
    files ``opacity-witness`` and an opaque strategy passes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checking.model_checker import (
    ExploreOptions,
    _successors,
    _terminal_history,
)
from repro.checking.packedcheck import initial_node
from repro.checking.tms2 import TMS2_STATS, decide_history_opaque_tms2
from repro.cli import SCOPES
from repro.core.atomic import run_transaction_atomically
from repro.core.errors import OpacityViolation
from repro.core.history import History
from repro.core.opacity import OpaqueMachine
from repro.core.ops import IdGenerator, Op
from repro.runtime.workload import WorkloadConfig, make_workload
from repro.specs.memory import MemorySpec

TMS2_SETTINGS = settings(max_examples=40, deadline=None)
OPACITY_BOUND = 6


def _walk(scope_name: str, policy: str, seed: int, steps: int = 48):
    """Seeded random walk over one registered scope; returns the final
    node (the same move enumeration the model checker expands)."""
    spec_cls, programs = SCOPES[scope_name]
    options = ExploreOptions(pull_policy=policy)
    node = initial_node(spec_cls(), programs)
    rng = random.Random(seed)
    for _ in range(steps):
        moves = [
            (rule, successor)
            for rule, _, successor in _successors(node, options, seen=set())
            if successor is not None
        ]
        if not moves:
            break
        _, node = moves[rng.randrange(len(moves))]
    return node


def _witness_and_dfs(scope: str, policy: str, seed: int):
    node = _walk(scope, policy, seed)
    history = _terminal_history(node)
    spec_cls, _ = SCOPES[scope]
    spec = spec_cls()
    dfs = decide_history_opaque_tms2(spec, history, max_exhaustive=OPACITY_BOUND)
    witness = decide_history_opaque_tms2(spec, history, max_exhaustive=0)
    return history, dfs, witness


class TestAgreementOnRandomHistories:
    """(a): the witness never accepts what the DFS rejects, every scope."""

    @TMS2_SETTINGS
    @given(
        scope=st.sampled_from(sorted(SCOPES)),
        policy=st.sampled_from(["committed", "all"]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_witness_accept_implies_dfs_accept(self, scope, policy, seed):
        history, dfs, witness = _witness_and_dfs(scope, policy, seed)
        if history.commit_count() > OPACITY_BOUND:
            return
        assert dfs.exhaustive
        assert not (witness.opaque and not dfs.opaque), (
            f"unsound witness on {scope}/{policy}/seed={seed}: "
            f"dfs={dfs.violations}"
        )

    @TMS2_SETTINGS
    @given(
        scope=st.sampled_from(sorted(SCOPES)),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_committed_policy_walks_agree_exactly(self, scope, seed):
        """Inside the opaque fragment (``pull_policy="committed"``) the
        two verdicts coincide on these scopes — nothing tentative is ever
        observed, so the commit order is always a witness when any
        order is."""
        history, dfs, witness = _witness_and_dfs(scope, "committed", seed)
        if history.commit_count() > OPACITY_BOUND:
            return
        assert witness.opaque == dfs.opaque


class TestSerialHistoriesAccepted:
    """(b): serial committed executions are always TMS2-opaque."""

    @TMS2_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        transactions=st.integers(min_value=1, max_value=5),
        read_ratio=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_serial_workload_history_is_opaque(
        self, seed, transactions, read_ratio
    ):
        spec = MemorySpec()
        config = WorkloadConfig(
            transactions=transactions,
            ops_per_tx=3,
            keys=2,
            read_ratio=read_ratio,
            seed=seed,
        )
        programs = make_workload("readwrite", config)
        history = History()
        ids = IdGenerator()
        log = ()
        for tid, program in enumerate(programs):
            record = history.begin(tid)
            full = next(
                run_transaction_atomically(spec, program, log, ids=ids)
            )
            history.commit(record, full[len(log):])
            log = full
        verdict = decide_history_opaque_tms2(
            spec, history, max_exhaustive=OPACITY_BOUND
        )
        assert verdict.opaque, verdict.violations
        # The serial order itself is a witness, so the committed
        # linearization the automaton found has full coverage.
        assert len(verdict.witness or ()) == history.commit_count()


class TestUncommittedPullRejected:
    """(c): fragment 1 — PULL of a ``gUCmt`` entry is rejected."""

    @TMS2_SETTINGS
    @given(
        scope=st.sampled_from(sorted(SCOPES)),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_opaque_machine_refuses_uncommitted_pull(self, scope, seed):
        """At every state of a ``pull_policy="all"`` walk, wrapping the
        machine in :class:`OpaqueMachine` turns any PULL of an
        uncommitted global entry into an :class:`OpacityViolation` —
        before the move would even be constructed."""
        node = _walk(scope, "all", seed)
        machine = node.machine
        guard = OpaqueMachine(machine)
        tid = machine.threads[0].tid if machine.threads else 0
        uncommitted = [
            entry.op
            for entry in machine.global_log
            if not entry.is_committed
        ]
        for op in uncommitted:
            with pytest.raises(OpacityViolation):
                guard.pull(tid, op)
        # Committed entries stay pullable as far as the guard itself is
        # concerned: the wrapper must reject *only* the gUCmt pulls.
        for entry in machine.global_log:
            if entry.is_committed:
                try:
                    guard.pull(tid, entry.op)
                except OpacityViolation as exc:  # pragma: no cover
                    pytest.fail(f"guard rejected a committed pull: {exc}")
                except Exception:
                    pass  # machine-level precondition failures are fine

    def test_dirty_read_history_rejected_by_tms2_only(self):
        """A committed consumer justified only by an aborted producer's
        write: no serial execution of committed transactions returns 1
        for an unwritten location, so TMS2 rejects it — exhaustively and
        through the witness alone.  The pulled-uncommitted write is a
        foreign tentative effect and never rides along to self-justify
        the read."""
        spec = MemorySpec()
        history = History()
        producer = history.begin(0)
        consumer = history.begin(1)
        write = Op("write", (("k", 0), 1), None, op_id=1)
        read = Op("read", (("k", 0),), 1, op_id=2)
        history.abort(producer, "rolled back", observed=(write,))
        history.commit(
            consumer, ops=(read,), observed=(write, read),
            pulled_uncommitted=(write,),
        )
        assert decide_history_opaque_tms2(spec, history).violations
        assert decide_history_opaque_tms2(
            spec, history, max_exhaustive=0
        ).violations


class TestStatsCounters:
    def test_counters_advance(self):
        spec = MemorySpec()
        history = History()
        record = history.begin(0)
        history.commit(record, (Op("write", (("k", 0), 7), None, op_id=1),))
        before = TMS2_STATS["opacity.tms2.checks"]
        assert decide_history_opaque_tms2(spec, history).violations == []
        assert TMS2_STATS["opacity.tms2.checks"] == before + 1

    def test_witness_only_counts_decisions_past_the_bound(self):
        spec = MemorySpec()
        history = History()
        for i in range(OPACITY_BOUND + 1):
            record = history.begin(i)
            history.commit(
                record, (Op("write", (("k", 0), i), None, op_id=i + 1),)
            )
        before = TMS2_STATS["opacity.tms2.witness_only"]
        verdict = decide_history_opaque_tms2(spec, history)
        assert verdict.opaque and not verdict.exhaustive
        assert TMS2_STATS["opacity.tms2.witness_only"] == before + 1
        decide_history_opaque_tms2(spec, history, max_exhaustive=OPACITY_BOUND + 1)
        assert TMS2_STATS["opacity.tms2.witness_only"] == before + 1


def _chaos(strategy: str, seed: int, events: int):
    """A seeded eight-transaction chaos run, gated."""
    from repro.faults.conformance import chaos_setup, run_chaos
    from repro.faults.plan import FaultPlan
    from repro.tm.broken import BROKEN_ALGORITHMS

    config = WorkloadConfig(
        transactions=8, ops_per_tx=3, keys=2, read_ratio=0.5, seed=seed
    )
    algorithm, spec, programs = chaos_setup(
        "tl2" if strategy in BROKEN_ALGORITHMS else strategy, config
    )
    if strategy in BROKEN_ALGORITHMS:
        algorithm = BROKEN_ALGORITHMS[strategy]()
    plan = FaultPlan.generate(seed, events=events, jobs=len(programs))
    return run_chaos(algorithm, spec, programs, plan, seed=seed)


class TestGateWitnessPastTheBound:
    """(d): windows of more than six commits are opacity-checked."""

    def test_dirty_reader_files_opacity_witness(self):
        result = _chaos("broken-dirty-read", seed=0, events=0)
        assert result.commits > OPACITY_BOUND
        checks = {failure.check for failure in result.failures}
        assert "opacity-witness" in checks, result.failures

    def test_opaque_strategy_passes_the_witness_gate(self):
        result = _chaos("encounter", seed=1, events=3)
        assert result.commits > OPACITY_BOUND
        assert result.aborts > 0  # aborted viewers were placed too
        assert result.ok, [str(f) for f in result.failures]
