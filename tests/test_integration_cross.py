"""Cross-cutting integration tests: multi-object transactions, machine ↔
driver interaction edge cases, spec rebasing, and the history walk's
verdicts on driver runs."""

import pytest

from repro.checking.tms2 import decide_history
from repro.core import Machine, call, tx
from repro.core.errors import CriterionViolation, MachineError
from repro.core.spec import RebasedStateSpec
from repro.runtime import WorkloadConfig, run_experiment
from repro.runtime.workload import WorkloadConfig as WC, make_workload
from repro.specs import CounterSpec, KVMapSpec, MemorySpec, ProductSpec, SetSpec
from repro.tm import HybridTM, TL2TM


class TestMultiObjectTransactions:
    def make_spec(self):
        return ProductSpec({"a": SetSpec(), "b": CounterSpec()})

    def test_pull_out_of_order_across_objects(self):
        """§4's PULL narrative: a transaction interested only in `a` pulls
        `a`-effects even though `b`-effects happened earlier in G."""
        spec = self.make_spec()
        m = Machine(spec)
        m, t0 = m.spawn(tx(call("b.inc"), call("a.add", "x")))
        m, t1 = m.spawn(tx(call("a.contains", "x")))
        m = m.app(t0)
        b_op = m.thread(t0).local[0].op
        m = m.push(t0, b_op)
        m = m.app(t0)
        a_op = m.thread(t0).local[1].op
        m = m.push(t0, a_op)
        m = m.cmt(t0)
        # t1 pulls the a-effect only — skipping the chronologically
        # earlier b-effect.
        m = m.pull(t1, a_op)
        m = m.app(t1)
        assert m.thread(t1).local[-1].op.ret is True
        m = m.push(t1, m.thread(t1).local[-1].op)
        m = m.cmt(t1)

    def test_history_walk_accepts_hybrid_run(self):
        spec = ProductSpec({"tbl": KVMapSpec(), "ctr": CounterSpec()})
        import random

        rng = random.Random(3)
        programs = [
            tx(
                call("tbl.put", ("k", rng.randrange(5)), i),
                call("ctr.inc"),
            )
            for i in range(14)
        ]
        algorithm = HybridTM(htm_components=frozenset({"ctr"}))
        result = run_experiment(algorithm, spec, programs, concurrency=4, seed=3)
        assert result.serialization.serializable


class TestRebasedSpec:
    def test_rebase_preserves_behaviour(self):
        base = CounterSpec()
        from repro.core.ops import make_op

        state = base.replay((make_op("inc", (), None), make_op("inc", (), None)))
        rebased = RebasedStateSpec(base, state)
        assert rebased.result((), "get", ()) == 2
        assert rebased.footprint("inc", ()) == base.footprint("inc", ())

    def test_rebase_of_rebase_flattens(self):
        base = CounterSpec()
        first = RebasedStateSpec(base, 5)
        second = RebasedStateSpec(first, 9)
        assert second.base is base
        assert second.result((), "get", ()) == 9

    def test_movers_unaffected_by_rebase(self):
        from repro.core.ops import make_op

        base = CounterSpec()
        rebased = RebasedStateSpec(base, 100)
        g = make_op("get", (), 0)
        i = make_op("inc", (), None)
        assert rebased.left_mover(g, i) == base.left_mover(g, i)


class TestMachineEdgeCases:
    def test_empty_transaction_commits(self):
        from repro.core.language import SKIP

        m, tid = Machine(MemorySpec()).spawn(SKIP)
        m = m.cmt(tid)
        m = m.end_thread(tid)
        assert m.threads == ()

    def test_interleaved_pull_of_own_op_rejected(self):
        m, tid = Machine(MemorySpec()).spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        op = m.thread(tid).local[0].op
        m = m.push(tid, op)
        with pytest.raises(CriterionViolation):
            m.pull(tid, op)  # op ∈ L: PULL criterion (i)

    def test_cmt_then_rules_rejected_or_inert(self):
        m, tid = Machine(MemorySpec()).spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        m = m.push(tid, m.thread(tid).local[0].op)
        m = m.cmt(tid)
        with pytest.raises(MachineError):
            m.unapp(tid)  # empty local log

    def test_two_machines_do_not_share_state(self):
        spec = MemorySpec()
        m1, t1 = Machine(spec).spawn(tx(call("write", "x", 1)))
        m2, t2 = Machine(spec).spawn(tx(call("write", "x", 2)))
        m1 = m1.app(t1)
        assert len(m2.thread(t2).local) == 0


class TestCheckersConsistency:
    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_history_walk_and_opacity(self, seed):
        config = WC(transactions=6, ops_per_tx=3, keys=3, read_ratio=0.5,
                    seed=seed)
        programs = make_workload("readwrite", config)
        result = run_experiment(TL2TM(), MemorySpec(), programs,
                                concurrency=3, seed=seed)
        walk = decide_history(
            MemorySpec(), result.runtime.history,
            result.runtime.machine.global_log.committed_ops(),
        )
        assert walk.serializable
        assert walk.violations == []
