"""Driver infrastructure: Runtime, LockTable, rollback, TxStepper."""

import pytest

from repro.core import Machine, call, tx
from repro.core.errors import AbortKind, MachineError, TMAbort
from repro.core.language import Tx
from repro.faults.recovery import make_policy
from repro.specs import CounterSpec, KVMapSpec, MemorySpec
from repro.tm.base import (
    DependencyRegistry,
    LockTable,
    Runtime,
    StepStatus,
    TxStepper,
)
from repro.tm import TL2TM


class TestLockTable:
    def test_acquire_and_conflict(self):
        table = LockTable()
        assert table.try_acquire(1, frozenset({"a", "b"}))
        assert not table.try_acquire(2, frozenset({"b"}))
        assert table.try_acquire(2, frozenset({"c"}))

    def test_reentrant(self):
        table = LockTable()
        assert table.try_acquire(1, frozenset({"a"}))
        assert table.try_acquire(1, frozenset({"a", "b"}))

    def test_release_all(self):
        table = LockTable()
        table.try_acquire(1, frozenset({"a"}))
        table.release_all(1)
        assert table.try_acquire(2, frozenset({"a"}))

    def test_failed_acquire_takes_nothing(self):
        table = LockTable()
        table.try_acquire(1, frozenset({"b"}))
        assert not table.try_acquire(2, frozenset({"a", "b"}))
        assert table.holder("a") is None  # partial acquisition rolled back

    def test_held_by(self):
        table = LockTable()
        table.try_acquire(1, frozenset({"a", "b"}))
        assert table.held_by(1) == frozenset({"a", "b"})


class TestDependencyRegistry:
    def test_depend_and_commit(self):
        reg = DependencyRegistry()
        reg.depend(consumer_tid=2, producer_tid=1)
        assert reg.producers(2) == frozenset({1})
        reg.on_commit(1)
        assert reg.producers(2) == frozenset()

    def test_abort_dooms_transitively(self):
        reg = DependencyRegistry()
        reg.depend(2, 1)
        reg.depend(3, 2)
        reg.on_abort(1)
        assert reg.doomed(2) and reg.doomed(3)

    def test_clear(self):
        reg = DependencyRegistry()
        reg.depend(2, 1)
        reg.on_abort(1)
        reg.clear(2)
        assert not reg.doomed(2)

    def test_unrelated_untouched(self):
        reg = DependencyRegistry()
        reg.depend(2, 1)
        reg.on_abort(5)
        assert not reg.doomed(2)


class TestRollback:
    def test_rollback_clears_everything(self):
        rt = Runtime(MemorySpec())
        rt.machine, tid = rt.machine.spawn(tx(call("write", "x", 1), call("read", "x")))
        original_code = rt.machine.thread(tid).code
        rt.apply("app", tid)
        rt.apply("push", tid, rt.machine.thread(tid).local[0].op)
        rt.apply("app", tid)
        rt.rollback(tid)
        thread = rt.machine.thread(tid)
        assert len(thread.local) == 0
        assert thread.code == original_code
        assert len(rt.machine.global_log) == 0

    def test_rollback_unpulls(self):
        rt = Runtime(MemorySpec())
        rt.machine, t0 = rt.machine.spawn(tx(call("write", "x", 1)))
        rt.machine, t1 = rt.machine.spawn(tx(call("read", "x")))
        rt.apply("app", t0)
        w = rt.machine.thread(t0).local[0].op
        rt.apply("push", t0, w)
        rt.apply("pull", t1, w)
        rt.apply("app", t1)
        rt.rollback(t1)
        assert len(rt.machine.thread(t1).local) == 0
        assert w in rt.machine.global_log  # pulled op stays (not ours)

    def test_rule_counts(self):
        rt = Runtime(CounterSpec())
        rt.machine, tid = rt.machine.spawn(tx(call("inc")))
        rt.apply("app", tid)
        rt.apply("push", tid, rt.machine.thread(tid).local[0].op)
        rt.apply("cmt", tid)
        assert rt.rule_counts["APP"] == 1
        assert rt.rule_counts["PUSH"] == 1
        assert rt.rule_counts["CMT"] == 1


class TestRelevantCommitted:
    def test_only_intersecting_mutators(self):
        rt = Runtime(KVMapSpec())
        rt.machine, t0 = rt.machine.spawn(tx(call("put", "a", 1), call("get", "b"),
                                             call("put", "b", 2)))
        rt.apply("app", t0)
        rt.apply("push", t0, rt.machine.thread(t0).local[0].op)
        rt.apply("app", t0)
        rt.apply("push", t0, rt.machine.thread(t0).local[1].op)
        rt.apply("app", t0)
        rt.apply("push", t0, rt.machine.thread(t0).local[2].op)
        rt.apply("cmt", t0)
        rt.machine, t1 = rt.machine.spawn(tx(call("get", "a")))
        relevant = rt.relevant_committed(t1, rt.spec.footprint("get", ("a",)))
        assert [op.method for op in relevant] == ["put"]
        assert relevant[0].args == ("a", 1)

    def test_excludes_already_pulled(self):
        rt = Runtime(KVMapSpec())
        rt.machine, t0 = rt.machine.spawn(tx(call("put", "a", 1)))
        rt.apply("app", t0)
        w = rt.machine.thread(t0).local[0].op
        rt.apply("push", t0, w)
        rt.apply("cmt", t0)
        rt.machine, t1 = rt.machine.spawn(tx(call("get", "a")))
        keys = rt.spec.footprint("get", ("a",))
        rt.pull_relevant(t1, keys)
        assert rt.relevant_committed(t1, keys) == []


class TestTxStepper:
    def test_commit_lifecycle(self):
        rt = Runtime(MemorySpec())
        stepper = TxStepper(TL2TM(), rt, tx(call("write", "x", 1)))
        while stepper.step() is StepStatus.RUNNING:
            pass
        assert stepper.status is StepStatus.COMMITTED
        assert rt.history.commit_count() == 1
        assert len(rt.machine.threads) == 0  # thread ended

    def test_commit_record_has_ops(self):
        rt = Runtime(MemorySpec())
        stepper = TxStepper(TL2TM(), rt, tx(call("write", "x", 1), call("read", "x")))
        while stepper.step() is StepStatus.RUNNING:
            pass
        record = rt.history.committed_records()[0]
        assert [op.method for op in record.ops] == ["write", "read"]

    def test_retry_after_conflict(self):
        # Two steppers over the same key with a manual interleaving that
        # forces one to abort and retry.
        rt = Runtime(MemorySpec())
        s1 = TxStepper(TL2TM(), rt, tx(call("read", "x"), call("write", "x", 1)),
                       recovery=make_policy("none"))
        s2 = TxStepper(TL2TM(), rt, tx(call("read", "x"), call("write", "x", 2)),
                       recovery=make_policy("none"))
        # interleave until both finish
        import itertools

        for stepper in itertools.cycle((s1, s2)):
            if all(s.status is not StepStatus.RUNNING for s in (s1, s2)):
                break
            stepper.step()
        assert s1.status is StepStatus.COMMITTED
        assert s2.status is StepStatus.COMMITTED
        assert rt.history.abort_count() >= 1  # someone had to retry

    def test_max_retries_exhaustion(self):
        class AlwaysAbort(TL2TM):
            def attempt(self, rt, tid, record, program):
                raise TMAbort("doomed")
                yield  # pragma: no cover

        rt = Runtime(MemorySpec())
        stepper = TxStepper(AlwaysAbort(), rt, tx(call("write", "x", 1)),
                            max_retries=3, recovery=make_policy("none"))
        while stepper.step() is StepStatus.RUNNING:
            pass
        assert stepper.status is StepStatus.ABORTED
        assert stepper.stats.aborts == 4  # initial + 3 retries

    def test_backoff_pauses(self):
        class AbortOnce(TL2TM):
            aborted = False

            def attempt(self, rt, tid, record, program):
                if not AbortOnce.aborted:
                    AbortOnce.aborted = True
                    raise TMAbort("first time")
                yield from super().attempt(rt, tid, record, program)

        rt = Runtime(MemorySpec())
        stepper = TxStepper(AbortOnce(), rt, tx(call("write", "x", 1)))
        while stepper.step() is StepStatus.RUNNING:
            pass
        assert stepper.status is StepStatus.COMMITTED
        assert stepper.stats.waits > 0  # sat out backoff quanta


class TestCompaction:
    def test_compacts_when_quiescent(self):
        rt = Runtime(CounterSpec(), compact_every=1)
        for _ in range(2):
            stepper = TxStepper(TL2TM(), rt, tx(call("inc")))
            while stepper.step() is StepStatus.RUNNING:
                pass
        # After compaction the global log is empty but state is preserved.
        assert len(rt.machine.global_log) == 0
        assert rt.spec.result((), "get", ()) == 2

    def test_verify_mode_disables_compaction(self):
        rt = Runtime(CounterSpec(), compact_every=None)
        for _ in range(3):
            stepper = TxStepper(TL2TM(), rt, tx(call("inc")))
            while stepper.step() is StepStatus.RUNNING:
                pass
        assert len(rt.machine.global_log) == 3

    def test_rollover_waits_until_nothing_leaks(self):
        """One quiescence rule: the rollover rebases only when ``leaks()``
        — the conformance gate's check 5 — reports nothing."""
        rt = Runtime(CounterSpec(), compact_every=None)
        stepper = TxStepper(TL2TM(), rt, tx(call("inc")))
        while stepper.step() is StepStatus.RUNNING:
            pass
        rt.try_token("probe", 99)
        rt.locks.try_acquire(98, frozenset({"k"}))
        assert rt.leaks() == [
            "leaked abstract locks: {98: frozenset({'k'})}",
            "leaked tokens: {'probe': 99}",
        ]
        assert not rt.rollover() and len(rt.machine.global_log) == 1
        rt.tokens["probe"] = None
        rt.locks.release_all(98)
        assert rt.leaks() == []
        assert rt.rollover() and len(rt.machine.global_log) == 0
        assert rt.spec.result((), "get", ()) == 1


class TestLifecycle:
    def test_commit_records_the_view_and_end_releases_what_was_held(self):
        rt = Runtime(CounterSpec())
        rt.machine, tid = rt.machine.spawn(tx(call("inc"), call("get")))
        record = rt.begin(tid, job_id=7)
        assert rt.active_tids == {tid} and rt.tid_to_job == {tid: 7}
        rt.try_token("mine", tid)
        assert rt.locks.try_acquire(tid, frozenset({"k"}))
        algorithm = TL2TM()
        for _ in range(2):
            algorithm.app_call(rt, tid, 0)
        algorithm.push_all_unpushed(rt, tid)
        rt.commit(tid, record)
        assert [op.method for op in record.ops] == ["inc", "get"]
        assert record.observed == record.ops and record.committed
        rt.end(tid)
        assert rt.leaks() == [] and rt.tid_to_job == {}
        assert len(rt.machine.threads) == 0

    def test_an_attempt_that_returns_without_cmt_fails_at_ms_end(self):
        class NoCommit(TL2TM):
            def attempt(self, rt, tid, record, program):
                self.app_call(rt, tid, 0)
                yield

        rt = Runtime(CounterSpec())
        stepper = TxStepper(NoCommit(), rt, tx(call("inc")))
        stepper.step()
        with pytest.raises(MachineError, match="MS_END"):
            stepper.step()

    def test_abort_rolls_back_and_records_the_view(self):
        rt = Runtime(CounterSpec())
        rt.machine, tid = rt.machine.spawn(tx(call("inc")))
        record = rt.begin(tid)
        rt.try_token("mine", tid)
        TL2TM().app_call(rt, tid, 0)
        rt.abort(tid, record, "probe", AbortKind.CONFLICT)
        assert record.abort_kind is AbortKind.CONFLICT
        assert [op.method for op in record.observed] == ["inc"]
        assert len(rt.machine.thread(tid).local) == 0
        assert rt.leaks() == []
        rt.drop(tid)
        assert len(rt.machine.threads) == 0 and rt.tid_to_job == {}
