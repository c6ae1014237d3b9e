"""Property-based end-to-end tests: every TM algorithm, random workloads,
always serializable, always state-consistent with a serial replay."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.runtime import WorkloadConfig, make_workload, run_experiment
from repro.specs import BankSpec, CounterSpec, KVMapSpec, MemorySpec
from repro.tm import (
    BoostingTM,
    DependentTM,
    EncounterTM,
    GlobalLockTM,
    HTM,
    IrrevocableTM,
    PessimisticTM,
    TL2TM,
)

TM_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALGORITHM_FACTORIES = [
    GlobalLockTM,
    TL2TM,
    EncounterTM,
    BoostingTM,
    PessimisticTM,
    IrrevocableTM,
    DependentTM,
    HTM,
]


@pytest.mark.parametrize("factory", ALGORITHM_FACTORIES, ids=lambda f: f.name)
@TM_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=99_999),
    keys=st.integers(min_value=1, max_value=6),
    read_ratio=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_readwrite_always_serializable(factory, seed, keys, read_ratio):
    config = WorkloadConfig(
        transactions=10, ops_per_tx=3, keys=keys, read_ratio=read_ratio,
        seed=seed,
    )
    programs = make_workload("readwrite", config)
    result = run_experiment(
        factory(), MemorySpec(), programs, concurrency=3, seed=seed,
    )
    # run_experiment raises on conclusive non-serializability; assert the
    # checker did find a witness (or was inconclusive, which at 10 txns in
    # commit order essentially never happens for these algorithms):
    assert result.serialization.serializable
    assert result.commits + result.permanently_aborted == 10


@pytest.mark.parametrize(
    "factory", [TL2TM, BoostingTM, DependentTM], ids=lambda f: f.name
)
@TM_SETTINGS
@given(seed=st.integers(min_value=0, max_value=99_999))
def test_counter_value_equals_committed_increments(factory, seed):
    """Whatever the interleaving, the final counter equals the number of
    committed `inc` operations — the bread-and-butter consistency check."""
    config = WorkloadConfig(
        transactions=12, ops_per_tx=2, read_ratio=0.25, seed=seed
    )
    programs = make_workload("counter", config)
    spec = CounterSpec()
    result = run_experiment(factory(), spec, programs, concurrency=4, seed=seed)
    committed = result.runtime.machine.global_log.committed_ops()
    expected = sum(1 for op in committed if op.method == "inc")
    assert spec.replay(committed) == expected


@TM_SETTINGS
@given(seed=st.integers(min_value=0, max_value=99_999))
def test_bank_conserves_money_under_any_algorithm(seed):
    """Transfers are withdraw-then-deposit; the workload deposits even when
    the withdraw failed (the language has no data-dependent control flow),
    so conservation holds modulo the amounts minted by failed withdraws —
    which are themselves determined by the committed history."""
    initial = [(("acct", i), 10) for i in range(3)]
    config = WorkloadConfig(
        transactions=12, ops_per_tx=2, keys=3, read_ratio=0.3, seed=seed
    )
    programs = make_workload("bank", config)
    for factory in (TL2TM, EncounterTM, PessimisticTM):
        spec = BankSpec(initial)
        result = run_experiment(
            factory(), spec, programs, concurrency=3, seed=seed
        )
        minted = 0
        for record in result.runtime.history.committed_records():
            failed = {
                op.args[1]
                for op in record.ops
                if op.method == "withdraw" and op.ret is False
            }
            for op in record.ops:
                if op.method == "deposit" and op.args[1] in failed:
                    minted += op.args[1]
        final = spec.replay(result.runtime.machine.global_log.committed_ops())
        assert sum(v for _, v in final) == 30 + minted, factory.name


@TM_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=99_999),
    concurrency=st.integers(min_value=1, max_value=6),
)
def test_concurrency_level_never_breaks_serializability(seed, concurrency):
    config = WorkloadConfig(
        transactions=10, ops_per_tx=3, keys=3, read_ratio=0.5, seed=seed
    )
    programs = make_workload("map", config)
    result = run_experiment(
        BoostingTM(), KVMapSpec(), programs, concurrency=concurrency, seed=seed
    )
    assert result.serialization.serializable
