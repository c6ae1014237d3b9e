"""The opacity boundary, empirically (§6.1 vs §6.5).

Opaque disciplines must pass the TMS2 opacity decision on every run;
the dependent (non-opaque) discipline produces — on some
schedules — views that no serial execution justifies (a transaction
observed uncommitted values whose producer then died).  Both directions
are pinned here: the opaque side as a sweep, the non-opaque side as a
concrete seeded witness plus a fuzz search.
"""

import pytest

from repro.checking.tms2 import decide_history
from repro.runtime import WorkloadConfig, make_workload, run_experiment
from repro.specs import MemorySpec
from repro.tm import (BoostingTM, DependentTM, EncounterTM, HTM,
                      IrrevocableTM, PessimisticTM, TL2TM)


OPAQUE_ROSTER = [TL2TM, EncounterTM, BoostingTM, PessimisticTM, HTM,
                 IrrevocableTM]


class TestOpaqueSideAlwaysPasses:
    @pytest.mark.parametrize("factory", OPAQUE_ROSTER, ids=lambda f: f.name)
    @pytest.mark.parametrize("seed", range(6))
    def test_opaque_runs_pass_view_check(self, factory, seed):
        config = WorkloadConfig(transactions=6, ops_per_tx=3, keys=2,
                                read_ratio=0.5, seed=seed)
        programs = make_workload("readwrite", config)
        result = run_experiment(factory(), MemorySpec(), programs,
                                concurrency=4, seed=seed)
        violations = decide_history(
            MemorySpec(), result.runtime.history
        ).violations
        assert violations == [], (factory.name, seed)


class TestNonOpaqueSideCanFail:
    def test_seeded_witness(self):
        """Seed 4 (found by sweep): an aborted dependent transaction
        observed an uncommitted value no serial execution assigns."""
        config = WorkloadConfig(transactions=6, ops_per_tx=3, keys=2,
                                read_ratio=0.5, seed=4)
        programs = make_workload("readwrite", config)
        result = run_experiment(DependentTM(), MemorySpec(), programs,
                                concurrency=4, seed=4)
        violations = decide_history(
            MemorySpec(), result.runtime.history
        ).violations
        assert violations  # non-opacity, caught by the checker
        # ... while the committed history is still serializable — the
        # model's whole point: serializability without opacity.
        assert result.serialization.serializable

    def test_fuzz_finds_some_violation(self):
        """Across a seed sweep the dependent discipline leaves the opaque
        fragment at least once (it wouldn't be non-opaque otherwise)."""
        found = 0
        for seed in range(10):
            config = WorkloadConfig(transactions=6, ops_per_tx=3, keys=2,
                                    read_ratio=0.5, seed=seed)
            programs = make_workload("readwrite", config)
            result = run_experiment(DependentTM(), MemorySpec(), programs,
                                    concurrency=4, seed=seed)
            violations = decide_history(
                MemorySpec(), result.runtime.history
            ).violations
            found += bool(violations)
            assert result.serialization.serializable  # always serializable
        assert found >= 1
