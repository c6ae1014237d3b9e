"""White-box tests of driver internals: pessimistic retraction, hybrid
selective rewind, HTM conflict tables, irrevocable token handling."""

import pytest

from repro.core import Machine, call, tx
from repro.core.errors import TMAbort
from repro.core.logs import NotPushed, Pushed
from repro.faults.recovery import make_policy
from repro.runtime import RoundRobinScheduler
from repro.specs import CounterSpec, KVMapSpec, MemorySpec, ProductSpec, SetSpec
from repro.tm import HTM, HybridTM, IrrevocableTM, PessimisticTM
from repro.tm.base import Runtime, StepStatus, TxStepper
from repro.tm.htm import FALLBACK_TOKEN
from repro.tm.irrevocable import IRREVOCABLE_TOKEN
from repro.tm.pessimistic import WRITE_TOKEN


def drive(rt, steppers, max_steps=50_000):
    scheduler = RoundRobinScheduler()
    scheduler.run(steppers)
    return steppers


class TestPessimisticInternals:
    def test_writer_blocked_by_reader_then_proceeds(self):
        """Manual interleaving: a reader publishes a read; a writer's
        publication must wait; after the reader commits the writer goes
        through.  No aborts anywhere."""
        rt = Runtime(MemorySpec())
        algo = PessimisticTM()
        reader = TxStepper(
            algo, rt, tx(call("read", "x")), recovery=make_policy("none")
        )
        writer = TxStepper(
            algo, rt, tx(call("write", "x", 5)), recovery=make_policy("none")
        )
        # reader performs its read (pull+app+push in one quantum):
        reader.step()
        assert any(
            e.op.method == "read" for e in rt.machine.global_log
        )
        # writer: token + app + publication attempts — step until it would
        # normally finish; it must still be RUNNING (blocked by reader).
        for _ in range(6):
            writer.step()
        assert writer.status is StepStatus.RUNNING
        assert writer.stats.aborts == 0
        # reader commits:
        while reader.status is StepStatus.RUNNING:
            reader.step()
        # writer can now publish and commit:
        while writer.status is StepStatus.RUNNING:
            writer.step()
        assert writer.status is StepStatus.COMMITTED
        assert writer.stats.aborts == 0

    def test_write_token_released_on_commit(self):
        rt = Runtime(MemorySpec())
        algo = PessimisticTM()
        w1 = TxStepper(
            algo, rt, tx(call("write", "x", 1)), recovery=make_policy("none")
        )
        w2 = TxStepper(
            algo, rt, tx(call("write", "x", 2)), recovery=make_policy("none")
        )
        drive(rt, [w1, w2])
        assert w1.status is StepStatus.COMMITTED
        assert w2.status is StepStatus.COMMITTED
        assert rt.token_holder(WRITE_TOKEN) is None


class TestHybridInternals:
    def make(self):
        spec = ProductSpec({"s": SetSpec(), "c": CounterSpec()})
        rt = Runtime(spec)
        algo = HybridTM(htm_components=frozenset({"c"}))
        return spec, rt, algo

    def test_htm_rewind_preserves_boosted_pushes(self):
        spec, rt, algo = self.make()
        rt.machine, tid = rt.machine.spawn(
            tx(call("s.add", "x"), call("c.inc"))
        )
        # boosted op: app + push; HTM op: app only.
        rt.apply("app", tid)
        boosted = rt.machine.thread(tid).local[0].op
        rt.apply("push", tid, boosted)
        rt.apply("app", tid)
        assert algo._htm_rewind(rt, tid) is True
        thread = rt.machine.thread(tid)
        # HTM suffix unapped; boosted entry intact and still pushed.
        assert len(thread.local) == 1
        assert isinstance(thread.local[0].flag, Pushed)
        assert boosted in rt.machine.global_log

    def test_htm_rewind_refuses_when_boosted_follows_htm(self):
        spec, rt, algo = self.make()
        rt.machine, tid = rt.machine.spawn(
            tx(call("c.inc"), call("s.add", "x"))
        )
        rt.apply("app", tid)  # HTM first
        rt.apply("app", tid)  # boosted second
        boosted = rt.machine.thread(tid).local[1].op
        rt.apply("push", tid, boosted)
        # rewinding the HTM op would pop the pushed boosted op: refuse.
        assert algo._htm_rewind(rt, tid) is False

    def test_htm_rewind_unpushes_published_htm_ops(self):
        spec, rt, algo = self.make()
        rt.machine, tid = rt.machine.spawn(
            tx(call("s.add", "x"), call("c.inc"))
        )
        rt.apply("app", tid)
        rt.apply("push", tid, rt.machine.thread(tid).local[0].op)
        rt.apply("app", tid)
        htm_op = rt.machine.thread(tid).local[1].op
        rt.apply("push", tid, htm_op)  # commit-phase publication
        assert algo._htm_rewind(rt, tid) is True
        assert htm_op not in rt.machine.global_log


class TestHTMInternals:
    def test_conflict_detection_matrix(self):
        htm = HTM()
        keys_a = frozenset({("loc", "x")})
        keys_b = frozenset({("loc", "y")})
        htm._track(1, keys_a, is_write=False)
        # read/read: no conflict
        assert not htm._detect_conflict(2, keys_a, is_write=False)
        # write after foreign read: conflict
        assert htm._detect_conflict(2, keys_a, is_write=True)
        # disjoint: never
        assert not htm._detect_conflict(2, keys_b, is_write=True)
        htm._track(1, keys_b, is_write=True)
        # read after foreign write: conflict
        assert htm._detect_conflict(2, keys_b, is_write=False)

    def test_capacity_abort(self):
        htm = HTM(capacity=2)
        htm._track(1, frozenset({"a"}), is_write=False)
        htm._track(1, frozenset({"b"}), is_write=True)
        with pytest.raises(TMAbort) as exc:
            htm._track(1, frozenset({"c"}), is_write=False)
        assert exc.value.reason == "capacity"

    def test_fallback_token_released(self):
        rt = Runtime(MemorySpec())
        algo = HTM(fallback_after=0)  # go straight to the lock
        stepper = TxStepper(algo, rt, tx(call("write", "x", 1)))
        while stepper.step() is StepStatus.RUNNING:
            pass
        assert stepper.status is StepStatus.COMMITTED
        assert rt.token_holder(FALLBACK_TOKEN) is None


class TestIrrevocableInternals:
    def test_token_exclusive(self):
        rt = Runtime(MemorySpec())
        algo = IrrevocableTM(irrevocable_after=0)
        s1 = TxStepper(
            algo, rt, tx(call("write", "x", 1)), recovery=make_policy("none")
        )
        s2 = TxStepper(
            algo, rt, tx(call("write", "x", 2)), recovery=make_policy("none")
        )
        s1.step()  # s1 takes the token (or goes optimistic)
        holders = [rt.token_holder(IRREVOCABLE_TOKEN)]
        s2.step()
        holders.append(rt.token_holder(IRREVOCABLE_TOKEN))
        drive(rt, [s1, s2])
        assert s1.status is StepStatus.COMMITTED
        assert s2.status is StepStatus.COMMITTED
        assert rt.token_holder(IRREVOCABLE_TOKEN) is None
