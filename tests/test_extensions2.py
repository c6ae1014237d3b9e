"""Second extension wave: ordered set, CAS, early release, elastic."""

import pytest

from repro.core import Machine, call, tx
from repro.core.ops import make_op
from repro.core.precongruence import both_mover, left_mover
from repro.runtime import WorkloadConfig, make_workload, run_experiment
from repro.specs import MemorySpec
from repro.specs.orderedset import OrderedSetSpec
from repro.tm import EarlyReleaseTM, ElasticTM, TL2TM
from repro.tm.elastic import elastic_program


class TestOrderedSetSpec:
    spec = OrderedSetSpec()

    def test_min_max_size(self):
        ops = (
            make_op("add", (5,), True),
            make_op("add", (2,), True),
            make_op("min", (), 2),
            make_op("max", (), 5),
            make_op("size", (), 2),
        )
        assert self.spec.allowed(ops)

    def test_empty_min_is_none(self):
        assert self.spec.result((), "min", ()) is None

    def test_min_conflicts_with_smaller_add(self):
        observed_min = make_op("min", (), 5)
        smaller = make_op("add", (2,), True)
        # min()->5 then add(2): fine; add(2) then min()->5: wrong. Not a
        # left mover.
        assert not left_mover(self.spec, observed_min, smaller)

    def test_min_commutes_with_larger_add(self):
        observed_min = make_op("min", (), 2)
        larger = make_op("add", (7,), True)
        assert left_mover(self.spec, observed_min, larger)
        assert left_mover(self.spec, larger, observed_min)

    def test_distinct_element_mutators_commute(self):
        a = make_op("add", (1,), True)
        b = make_op("remove", (9,), True)
        assert both_mover(self.spec, a, b)

    def test_size_conflicts_with_mutators(self):
        size = make_op("size", (), 0)
        add = make_op("add", (1,), True)
        assert not left_mover(self.spec, size, add)

    def test_footprint_relevance_covers_order_observers(self):
        # mutators carry the "order" key so min()'s relevance pull sees
        # them (the soundness requirement documented in the module).
        assert "order" in self.spec.footprint("add", (1,))
        assert "order" in self.spec.footprint("min", ())
        assert "order" not in self.spec.footprint("contains", (1,))

    def test_tm_run_with_order_observers(self):
        import random

        rng = random.Random(4)
        programs = []
        for _ in range(15):
            roll = rng.random()
            if roll < 0.4:
                programs.append(tx(call("add", rng.randrange(10))))
            elif roll < 0.6:
                programs.append(tx(call("min"), call("size")))
            else:
                programs.append(tx(call("remove", rng.randrange(10))))
        result = run_experiment(TL2TM(), OrderedSetSpec(), programs,
                                concurrency=4, seed=4)
        assert result.commits == 15
        assert result.serialization.serializable


class TestCASMovers:
    spec = MemorySpec()

    def test_successful_cas_pair_not_movers(self):
        c1 = make_op("cas", ("x", 0, 1), True)
        c2 = make_op("cas", ("x", 1, 2), True)
        # c1;c2 allowed from x=0; swapped c2 first needs x=1. Not movers.
        assert not left_mover(self.spec, c1, c2)

    def test_failed_cas_commutes_with_read(self):
        fail = make_op("cas", ("x", 7, 9), False)  # x ≠ 7, no effect
        read = make_op("read", ("x",), 0)
        assert both_mover(self.spec, fail, read)

    def test_cas_different_locations_commute(self):
        c1 = make_op("cas", ("x", 0, 1), True)
        c2 = make_op("cas", ("y", 0, 1), True)
        assert both_mover(self.spec, c1, c2)


class TestEarlyRelease:
    def test_release_then_commit(self):
        config = WorkloadConfig(transactions=20, ops_per_tx=4, keys=8,
                                read_ratio=0.7, seed=5)
        algorithm = EarlyReleaseTM()
        result = run_experiment(
            algorithm, MemorySpec(), make_workload("readwrite", config),
            concurrency=4, seed=5,
        )
        assert result.commits == 20
        assert result.serialization.serializable

    def test_releases_unblock_writers(self):
        """A released read stops blocking a writer: manual scenario."""
        from repro.tm.base import Runtime

        rt = Runtime(MemorySpec())
        rt.machine, reader = rt.machine.spawn(
            tx(call("read", "x"), call("read", "y"))
        )
        rt.machine, writer = rt.machine.spawn(tx(call("write", "x", 9)))
        # reader publishes read(x):
        rt.apply("app", reader)
        read_x = rt.machine.thread(reader).local[0].op
        rt.apply("push", reader, read_x)
        # the writer is blocked (criterion ii):
        rt.apply("app", writer)
        w = rt.machine.thread(writer).local[0].op
        from repro.core.errors import CriterionViolation

        with pytest.raises(CriterionViolation):
            rt.machine.push(writer, w)
        # reader releases the read (UNPUSH for a non-abort purpose):
        rt.apply("unpush", reader, read_x)
        rt.apply("push", writer, w)  # now fine
        assert w in rt.machine.global_log

    def test_release_counter_increments(self):
        config = WorkloadConfig(transactions=15, ops_per_tx=4, keys=10,
                                read_ratio=0.8, seed=6)
        algorithm = EarlyReleaseTM()
        run_experiment(
            algorithm, MemorySpec(), make_workload("readwrite", config),
            concurrency=4, seed=6,
        )
        assert algorithm.releases > 0

    def test_disabled_release_is_plain_encounter(self):
        config = WorkloadConfig(transactions=15, ops_per_tx=3, keys=5,
                                read_ratio=0.5, seed=7)
        algorithm = EarlyReleaseTM(release_enabled=False)
        result = run_experiment(
            algorithm, MemorySpec(), make_workload("readwrite", config),
            concurrency=4, seed=7,
        )
        assert algorithm.releases == 0
        assert result.commits == 15


class TestElastic:
    def test_elastic_program_shape(self):
        from repro.core.language import fin, step

        calls = [call("read", "x"), call("read", "y"), call("write", "x", 1)]
        program = elastic_program(calls)
        # a path to skip exists after the first op (cut point):
        first_steps = step(program)
        assert len(first_steps) == 1
        _, continuation = next(iter(first_steps))
        assert fin(continuation)

    def test_a_long_program_takes_the_elastic_shape_and_commits(self):
        from repro.core.language import SKIP, Choice, Seq, tx
        from repro.tm.base import Runtime, StepStatus, TxStepper

        calls = [call("write", f"x{i}", i) for i in range(3000)]
        node, spine = elastic_program(calls), []
        while isinstance(node, Seq):
            assert isinstance(node.second, Choice) and node.second.left is SKIP
            spine.append(node.first)
            node = node.second.right
        assert spine + [node] == calls
        rt = Runtime(MemorySpec())
        stepper = TxStepper(ElasticTM(), rt, tx(*calls))
        while stepper.step() is StepStatus.RUNNING:
            pass
        assert stepper.status is StepStatus.COMMITTED
        assert [op.ret for op in stepper.record.ops] == [None] * 3000

    def test_commits_with_cuts_under_contention(self):
        config = WorkloadConfig(transactions=30, ops_per_tx=6, keys=3,
                                read_ratio=0.7, seed=8)
        algorithm = ElasticTM()
        result = run_experiment(
            algorithm, MemorySpec(), make_workload("readwrite", config),
            concurrency=6, seed=8,
        )
        assert result.commits == 30
        assert result.serialization.serializable
        # pieces appear as extra committed records:
        assert result.runtime.history.commit_count() >= 30
        assert algorithm.cuts == result.runtime.history.commit_count() - 30

    def test_pieces_are_piecewise_serializable(self):
        config = WorkloadConfig(transactions=20, ops_per_tx=5, keys=2,
                                read_ratio=0.6, seed=9)
        algorithm = ElasticTM()
        result = run_experiment(
            algorithm, MemorySpec(), make_workload("readwrite", config),
            concurrency=5, seed=9,
        )
        # the harness already verified serializability of the piece-level
        # history (the elastic correctness criterion).
        assert result.serialization.serializable

    def test_no_cuts_without_contention(self):
        config = WorkloadConfig(transactions=10, ops_per_tx=3, keys=50,
                                read_ratio=0.5, seed=10)
        algorithm = ElasticTM()
        result = run_experiment(
            algorithm, MemorySpec(), make_workload("readwrite", config),
            concurrency=3, seed=10,
        )
        assert algorithm.cuts == 0
        assert result.commits == 10
