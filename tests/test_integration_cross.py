"""Cross-cutting integration tests: multi-object transactions, machine ↔
driver interaction edge cases, spec rebasing, and end-to-end consistency
between all three serializability checkers."""

import pytest

from repro.checking.tms2 import decide_history_opaque_tms2
from repro.core import Machine, call, tx
from repro.core.conflictgraph import conflict_serializable
from repro.core.errors import CriterionViolation, MachineError
from repro.core.serializability import check_history
from repro.core.spec import RebasedStateSpec
from repro.runtime import WorkloadConfig, run_experiment
from repro.runtime.workload import WorkloadConfig as WC, make_workload
from repro.specs import CounterSpec, KVMapSpec, MemorySpec, ProductSpec, SetSpec
from repro.tm import BoostingTM, HybridTM, TL2TM


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

    def test_three_checkers_agree_on_hybrid_run(self):
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
        exact = check_history(spec, result.runtime.history, result.runtime.machine)
        cg_ok, _, _ = conflict_serializable(
            spec, result.runtime.history, result.runtime.machine
        )
        assert exact.serializable
        assert cg_ok


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
    def test_exact_and_conflict_graph_and_opacity(self, seed):
        config = WC(transactions=6, ops_per_tx=3, keys=3, read_ratio=0.5,
                    seed=seed)
        programs = make_workload("readwrite", config)
        result = run_experiment(TL2TM(), MemorySpec(), programs,
                                concurrency=3, seed=seed)
        exact = check_history(MemorySpec(), result.runtime.history,
                              result.runtime.machine)
        cg_ok, order, _ = conflict_serializable(
            MemorySpec(), result.runtime.history, result.runtime.machine
        )
        opacity = decide_history_opaque_tms2(
            MemorySpec(), result.runtime.history
        )
        assert exact.serializable
        assert cg_ok
        assert opacity.violations == []

    def test_boosting_abstract_vs_word_level_graph(self):
        """The same boosted counter run: conflict graph at the abstract
        level is acyclic with zero edges, while a word-level reading of
        the same history (every op conflicts) would order every pair —
        the quantitative heart of the coarse-grained argument."""
        from repro.core.conflictgraph import build_conflict_graph

        config = WC(transactions=10, ops_per_tx=2, read_ratio=0.0, seed=15)
        programs = make_workload("counter", config)
        result = run_experiment(BoostingTM(), CounterSpec(), programs,
                                concurrency=4, seed=15)
        history, machine = result.runtime.history, result.runtime.machine
        tx_of_op = {
            op.op_id: r.tx_id
            for r in history.committed_records()
            for op in r.ops
        }
        abstract = build_conflict_graph(
            CounterSpec(), tx_of_op, machine.global_log.committed_ops()
        )

        class WordLevelCounter(CounterSpec):
            def commutes(self, op1, op2):
                return False  # every access touches the same word

            def left_mover(self, op1, op2):
                return False

        word = build_conflict_graph(
            WordLevelCounter(), tx_of_op, machine.global_log.committed_ops()
        )
        abstract_edges = sum(len(d) for d in abstract.edges.values())
        word_edges = sum(len(d) for d in word.edges.values())
        assert abstract_edges == 0
        assert word_edges > 0
