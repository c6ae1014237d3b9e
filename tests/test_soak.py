"""Soak tests: long runs with compaction enabled.

The runtime's log compaction (rebasing the spec on the replayed committed
state and emptying the global log) is the most state-dependent mechanism
in the driver layer; these runs push hundreds of transactions through it
and verify end-state consistency against independently tracked ground
truth.
"""

import gc
import weakref

import pytest

from repro.core.language import call, tx
from repro.core.logs import EMPTY_GLOBAL, EMPTY_LOCAL
from repro.runtime import WorkloadConfig, make_workload, run_experiment
from repro.specs import BankSpec, CounterSpec, MemorySpec
from repro.tm import BoostingTM, EncounterTM, PessimisticTM, TL2TM
from repro.tm.base import Runtime, StepStatus, TxStepper


@pytest.mark.slow
class TestSoak:
    def test_counter_soak_exact_value(self):
        """300 increment-heavy transactions; the rebased spec's final value
        must equal the number of committed incs minus committed decs —
        tracked from the history, across compaction epochs."""
        config = WorkloadConfig(transactions=300, ops_per_tx=2,
                                read_ratio=0.1, seed=41)
        programs = make_workload("counter", config)
        result = run_experiment(
            TL2TM(), CounterSpec(), programs, concurrency=5, seed=41,
            verify=False,
        )
        assert result.commits == 300
        expected = 0
        for record in result.runtime.history.committed_records():
            for op in record.ops:
                if op.method == "inc":
                    expected += 1
                elif op.method == "dec":
                    expected -= 1
        # final value = rebased initial state + remaining log
        final = result.runtime.spec.replay(
            result.runtime.machine.global_log.committed_ops()
        )
        assert final == expected
        # compaction actually happened (log far shorter than total ops)
        assert len(result.runtime.machine.global_log) < 300

    def test_bank_soak_conservation(self):
        config = WorkloadConfig(transactions=200, ops_per_tx=2, keys=5,
                                read_ratio=0.3, seed=42)
        programs = make_workload("bank", config)
        initial = [(("acct", i), 50) for i in range(5)]
        result = run_experiment(
            EncounterTM(), BankSpec(initial), programs, concurrency=5,
            seed=42, verify=False,
        )
        assert result.commits == 200
        minted = 0
        for record in result.runtime.history.committed_records():
            failed = {
                op.args[1] for op in record.ops
                if op.method == "withdraw" and op.ret is False
            }
            for op in record.ops:
                if op.method == "deposit" and op.args[1] in failed:
                    minted += op.args[1]
        final = result.runtime.spec.replay(
            result.runtime.machine.global_log.committed_ops()
        )
        assert sum(v for _, v in final) == 250 + minted

    @pytest.mark.parametrize("factory", [TL2TM, BoostingTM, PessimisticTM],
                             ids=lambda f: f.name)
    def test_memory_soak_no_losses(self, factory):
        config = WorkloadConfig(transactions=250, ops_per_tx=3, keys=10,
                                read_ratio=0.6, seed=43)
        programs = make_workload("readwrite", config)
        result = run_experiment(
            factory(), MemorySpec(), programs, concurrency=6, seed=43,
            verify=False,
        )
        assert result.commits == 250
        assert result.permanently_aborted == 0
        # the rebased state replays cleanly
        assert result.runtime.spec.replay(
            result.runtime.machine.global_log.committed_ops()
        ) is not None


def test_compaction_frees_each_epochs_memos_and_programs():
    """Every ``Runtime.maybe_compact`` rebases the spec, so the next
    machine gets a fresh denotation cache.  What the old caches computed
    must not pile up on the shared empty-log singletons, and a committed
    transaction's program must not outlive its run."""

    def slots():
        return len(EMPTY_LOCAL._proj or ()) + len(EMPTY_GLOBAL._proj or ())

    rt = Runtime(MemorySpec(), compact_every=1)
    algorithm = TL2TM()
    programs = []
    for value in range(40):
        if value == 20:
            gc.collect()
            slots_at_20 = slots()
        program = tx(call("write", "x", value), call("read", "x"))
        # the machine steps the body, not the ``tx`` node around it
        programs.extend((weakref.ref(program), weakref.ref(program.body)))
        stepper = TxStepper(algorithm, rt, program)
        while stepper.step() is StepStatus.RUNNING:
            pass
        assert stepper.status is StepStatus.COMMITTED
        del program, stepper
    gc.collect()
    assert len(rt.machine.global_log) == 0  # compacted after every commit
    assert slots() == slots_at_20
    assert [i for i, ref in enumerate(programs) if ref() is not None] == []
    # the rebased spec carries the last write across every epoch
    assert rt.spec.perform(rt.spec.initial_state(), "read", ("x",))[0] == 39
