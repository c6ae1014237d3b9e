"""Opacity as a PUSH/PULL fragment (§6.1), and the facts about opacity
the TMS2 decision must respect on hand-built histories."""

import pytest

from repro.checking.tms2 import decide_history_opaque_tms2
from repro.core import Machine, call, tx
from repro.core.errors import OpacityViolation
from repro.core.history import History
from repro.core.opacity import OpaqueMachine, may_pull_uncommitted
from repro.core.ops import make_op
from repro.specs import BankSpec, CounterSpec, KVMapSpec, MemorySpec


class TestOpaqueMachine:
    def build(self):
        spec = MemorySpec()
        machine = OpaqueMachine(Machine(spec))
        machine, t0 = machine.spawn(tx(call("write", "x", 1)))
        machine, t1 = machine.spawn(tx(call("read", "x")))
        return machine, t0, t1

    def test_blocks_uncommitted_pull(self):
        machine, t0, t1 = self.build()
        machine = machine.app(t0)
        w = machine.thread(t0).local[0].op
        machine = machine.push(t0, w)
        with pytest.raises(OpacityViolation):
            machine.pull(t1, w)

    def test_allows_committed_pull(self):
        machine, t0, t1 = self.build()
        machine = machine.app(t0)
        w = machine.thread(t0).local[0].op
        machine = machine.push(t0, w)
        machine = machine.cmt(t0)
        machine = machine.pull(t1, w)  # now fine
        assert w in machine.thread(t1).local

    def test_delegates_other_rules(self):
        machine, t0, t1 = self.build()
        machine = machine.app(t0)
        machine = machine.unapp(t0)
        assert len(machine.thread(t0).local) == 0

    def test_full_opaque_commit_cycle(self):
        from repro.core.errors import CriterionViolation

        machine, t0, t1 = self.build()
        machine = machine.app(t0)
        machine = machine.push(t0, machine.thread(t0).local[0].op)
        machine = machine.cmt(t0)
        machine = machine.end_thread(t0)
        machine = machine.app(t1)
        r = machine.thread(t1).local[-1].op
        assert r.ret == 0  # didn't pull: local view is empty
        # pushing the stale read is rejected (PUSH criterion (iii)) — the
        # opaque transaction must PULL the committed write first:
        with pytest.raises(CriterionViolation):
            machine.push(t1, r)
        machine = machine.unapp(t1)
        machine = machine.pull(t1, machine.global_log[0].op)
        machine = machine.app(t1)
        fresh = machine.thread(t1).local[-1].op
        assert fresh.ret == 1
        machine = machine.push(t1, fresh)
        machine = machine.cmt(t1)


class TestMayPullUncommitted:
    def test_counter_mutator_only_transaction(self):
        spec = CounterSpec()
        machine = Machine(spec)
        machine, producer = machine.spawn(tx(call("inc")))
        machine, consumer = machine.spawn(tx(call("inc"), call("add", 5)))
        machine = machine.app(producer)
        op = machine.thread(producer).local[0].op
        machine = machine.push(producer, op)
        # all of the consumer's reachable methods are mutators — they
        # commute with the pulled inc, so the pull keeps opacity.
        assert may_pull_uncommitted(machine, consumer, op)

    def test_observer_blocks_relaxation(self):
        spec = CounterSpec()
        machine = Machine(spec)
        machine, producer = machine.spawn(tx(call("inc")))
        machine, consumer = machine.spawn(tx(call("inc"), call("get")))
        machine = machine.app(producer)
        op = machine.thread(producer).local[0].op
        machine = machine.push(producer, op)
        assert not may_pull_uncommitted(machine, consumer, op)

    def test_disjoint_footprints_allow(self):
        spec = KVMapSpec()
        machine = Machine(spec)
        machine, producer = machine.spawn(tx(call("put", "a", 1)))
        machine, consumer = machine.spawn(tx(call("put", "b", 2), call("get", "b")))
        machine = machine.app(producer)
        op = machine.thread(producer).local[0].op
        machine = machine.push(producer, op)
        assert may_pull_uncommitted(machine, consumer, op)

    def test_bank_deposit_relaxation(self):
        spec = BankSpec()
        machine = Machine(spec)
        machine, producer = machine.spawn(tx(call("deposit", "a", 5)))
        machine, consumer = machine.spawn(tx(call("deposit", "a", 7)))
        machine = machine.app(producer)
        op = machine.thread(producer).local[0].op
        machine = machine.push(producer, op)
        assert may_pull_uncommitted(machine, consumer, op)


class TestViewConsistency:
    """Final-state view consistency, stated as TMS2 histories: a viewer's
    responses must be those of some memory version in one shared witness
    order of the committed transactions."""

    spec = MemorySpec()

    def w(self, loc, v):
        return make_op("write", (loc, v), None)

    def r(self, loc, v):
        return make_op("read", (loc,), v)

    def decide(self, history, **kwargs):
        return decide_history_opaque_tms2(self.spec, history, **kwargs)

    def test_consistent_view(self):
        history = History()
        writer = history.begin(0)
        w = self.w("x", 1)
        history.commit(writer, (w,))
        viewer = history.begin(1)
        history.abort(viewer, "zombie", observed=(w, self.r("x", 1)))
        assert self.decide(history).opaque

    def test_snapshot_before_later_commit(self):
        # the viewer pulled only w1 and read 1, while w2 committed
        # concurrently: it linearizes between the two commits.
        history = History()
        first = history.begin(0)
        w1, w2 = self.w("x", 1), self.w("x", 2)
        history.commit(first, (w1,))
        viewer = history.begin(1)
        second = history.begin(2)
        history.commit(second, (w2,))
        history.abort(viewer, "zombie", observed=(w1, self.r("x", 1)))
        assert self.decide(history).opaque

    def test_mixed_snapshot_rejected(self):
        # the two writes belong to ONE transaction; a viewer that *read*
        # x=1 together with y=0 observed half of it — the classic opacity
        # violation (no memory version assigns that pair of responses).
        history = History()
        writer = history.begin(0)
        viewer = history.begin(1)
        history.commit(writer, (self.w("x", 1), self.w("y", 1)))
        history.abort(
            viewer, "zombie", observed=(self.r("x", 1), self.r("y", 0))
        )
        verdict = self.decide(history)
        assert not verdict.opaque and verdict.exhaustive

    def test_pulled_entries_are_not_observations(self):
        # pulling one write of a committed transaction without ever
        # *reading* through it observes nothing inconsistent.
        history = History()
        writer = history.begin(0)
        viewer = history.begin(1)
        wx, wy = self.w("x", 1), self.w("y", 1)
        history.commit(writer, (wx, wy))
        history.abort(viewer, "zombie", observed=(wx, self.r("y", 0)))
        assert self.decide(history).opaque

    def test_too_many_transactions_take_the_witness(self):
        """Past the exhaustive bound the decision walks the commit order
        alone: a serial chain of nine writes is accepted through it, and
        a chain committed in the reverse of its only serial order is
        rejected although that order linearizes it — which is why the
        verdict says it was not exhaustive."""
        history = History()
        for i in range(9):
            record = history.begin(i)
            history.commit(record, (self.w("x", i),))
        verdict = self.decide(history, max_exhaustive=6)
        assert verdict.opaque and not verdict.exhaustive
        assert verdict.witness == tuple(range(9))

        chain = History()
        records = [chain.begin(i) for i in range(8)]
        # tx i reads i and writes i + 1; they commit in reverse
        for i in reversed(range(8)):
            chain.commit(records[i], (self.r("x", i), self.w("x", i + 1)))
        verdict = decide_history_opaque_tms2(self.spec, chain, max_exhaustive=6)
        assert not verdict.opaque and not verdict.exhaustive
        assert len(verdict.violations) == 1

    def test_prefix_pruning_bounds_the_search(self):
        """Timing-free size bound on the DFS: the chained history below
        admits exactly one serial order (tx_i must read ``i`` before
        writing ``i + 1``) and commits in the reverse of it, so the
        commit-order first descent is wrong at every depth.  Every wrong
        candidate dies at its own prefix judgement: the search issues
        one ``allowed`` call per (depth, remaining-tx) pair —
        6 + 5 + ... + 1 = 21 — instead of enumerating 720 orders."""
        history = History()
        records = [history.begin(i) for i in range(6)]
        for i in reversed(range(6)):
            history.commit(records[i], (self.r("x", i), self.w("x", i + 1)))
        verdict = self.decide(history, max_exhaustive=6)
        assert verdict.opaque and verdict.exhaustive
        assert verdict.witness == tuple(record.tx_id for record in records)
        assert verdict.allowed_calls <= 21, (
            f"prefix pruning regressed: {verdict.allowed_calls} allowed() "
            "calls for the 6-transaction chain"
        )


class TestHistoryOpacity:
    def test_opaque_driver_run_passes(self):
        from repro.runtime import WorkloadConfig, make_workload, run_experiment
        from repro.tm import TL2TM

        config = WorkloadConfig(transactions=6, ops_per_tx=3, keys=3, seed=5)
        programs = make_workload("readwrite", config)
        result = run_experiment(
            TL2TM(), MemorySpec(), programs, concurrency=3, seed=5
        )
        verdict = decide_history_opaque_tms2(
            MemorySpec(), result.runtime.history
        )
        assert verdict.violations == []
