"""The fault-injection subsystem (ISSUE 4): plans, injector, nemesis,
replay, the conformance gate, and the shrinker.

The headline property: every TM strategy survives adversarial fault
plans with *clean* aborts — serializability (and opacity, where claimed)
hold, nothing leaks — and any failure reproduces deterministically from
``(seed, plan)`` alone.
"""

import pytest

from repro.core.errors import AbortKind, MachineError
from repro.faults.conformance import (
    ChaosResult,
    chaos_setup,
    conformance_failures,
    run_chaos,
    run_suite,
    shrink_plan,
)
from repro.faults.nemesis import NemesisScheduler, ReplayScheduler
from repro.faults.plan import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    InjectedFault,
)
from repro.faults.recovery import RecoveryPolicy, make_policy
from repro.runtime import WorkloadConfig, make_scheduler, make_workload, run_experiment
from repro.specs import MemorySpec
from repro.tm import ALL_ALGORITHMS, TL2TM

CFG = WorkloadConfig(transactions=4, ops_per_tx=3, keys=3, read_ratio=0.5, seed=5)


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(11, events=6, jobs=4)
        b = FaultPlan.generate(11, events=6, jobs=4)
        assert a == b
        assert FaultPlan.generate(12, events=6, jobs=4) != a

    def test_roundtrips_through_dict(self):
        plan = FaultPlan.generate(3, events=5, jobs=3)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_describe_mentions_every_event(self):
        plan = FaultPlan.generate(7, events=4, jobs=4)
        text = plan.describe()
        for event in plan.events:
            assert event.kind.value in text


class TestInjector:
    def test_injected_faults_surface_as_injected_aborts(self):
        """A forced abort flows through the normal abort machinery and is
        recorded with the INJECTED kind — never anything dirtier."""
        plan = FaultPlan(
            seed=0, events=(FaultEvent(FaultKind.FORCED_ABORT, job=1, count=2),)
        )
        injector = FaultInjector(plan)
        programs = make_workload("readwrite", CFG)
        result = run_experiment(
            TL2TM(), MemorySpec(), programs, concurrency=4, seed=0,
            injector=injector,
        )
        assert injector.stats["fault.injected"] == 2
        kinds = [r.abort_kind for r in result.runtime.history.aborted_records()]
        assert kinds.count(AbortKind.INJECTED) == 2
        assert result.commits == len(programs)  # retries recover everything

    def test_crash_before_commit_rolls_back_cleanly(self):
        plan = FaultPlan(
            seed=0, events=(FaultEvent(FaultKind.CRASH_COMMIT, job=0),)
        )
        injector = FaultInjector(plan)
        programs = make_workload("readwrite", CFG)
        result = run_experiment(
            TL2TM(), MemorySpec(), programs, concurrency=4, seed=0,
            injector=injector, verify=True,
        )
        assert injector.stats["fault.injected.crash-commit"] == 1
        assert result.commits == len(programs)
        assert result.serialization.serializable

    def test_lock_deny_drives_the_timeout_path(self):
        plan = FaultPlan(
            seed=0, events=(FaultEvent(FaultKind.LOCK_DENY, count=3),)
        )
        injector = FaultInjector(plan)
        programs = make_workload("readwrite", CFG)
        # boosting is the registry's abstract-lock discipline (hybrid is
        # the only other LockTable user)
        result = run_experiment(
            ALL_ALGORITHMS["boosting"](), MemorySpec(), programs,
            concurrency=4, seed=0, injector=injector,
        )
        assert injector.stats["fault.lock_denied"] == 3
        assert result.commits == len(programs)

    def test_stall_consumes_quanta_without_aborting(self):
        plan = FaultPlan(
            seed=0, events=(FaultEvent(FaultKind.STALL, job=0, duration=4),)
        )
        injector = FaultInjector(plan)
        programs = make_workload("readwrite", CFG)
        result = run_experiment(
            TL2TM(), MemorySpec(), programs, concurrency=4, seed=0,
            injector=injector,
        )
        assert injector.stats["fault.stall_quanta"] == 4
        assert injector.stats.get("fault.injected.stall", 0) == 1
        assert result.commits == len(programs)

    def test_counters_mirror_into_the_tracer(self):
        """Chaos stats are tracer-free, but with a RecordingTracer the
        same increments appear as ``fault.*``/``recovery.*`` counts
        (docs/OBSERVABILITY.md's table)."""
        from repro.obs import RecordingTracer

        tracer = RecordingTracer()
        plan = FaultPlan(
            seed=0, events=(FaultEvent(FaultKind.FORCED_ABORT, count=3),)
        )
        run_experiment(
            TL2TM(), MemorySpec(), make_workload("readwrite", CFG),
            concurrency=4, seed=1, injector=FaultInjector(plan),
            recovery=RecoveryPolicy(), tracer=tracer,
        )
        assert tracer.counts["fault.injected"] == 3
        assert tracer.counts["fault.injected.forced-abort"] == 3
        # organic conflict aborts retry through the same policy, so the
        # retry count is at least the injected-abort count
        assert tracer.counts["recovery.retry"] >= 3
        assert tracer.counts["recovery.backoff_quanta"] > 0

    def test_window_after_and_count(self):
        """``after`` skips hook hits, ``count`` bounds firings."""
        plan = FaultPlan(
            seed=0,
            events=(FaultEvent(FaultKind.FORCED_ABORT, job=2, after=3, count=1),),
        )
        injector = FaultInjector(plan)
        programs = make_workload("readwrite", CFG)
        run_experiment(
            TL2TM(), MemorySpec(), programs, concurrency=4, seed=0,
            injector=injector,
        )
        assert injector.stats["fault.injected.forced-abort"] == 1
        state = injector._states[0]
        assert state.seen > 3 and state.fired == 1


class TestNemesisAndReplay:
    def test_nemesis_is_deterministic_per_seed(self):
        def one_run():
            programs = make_workload("readwrite", CFG)
            sched = NemesisScheduler(9)
            result = run_experiment(
                TL2TM(), MemorySpec(), programs, concurrency=4,
                scheduler=sched, seed=9,
            )
            return tuple(sched.choices), result.commits, result.aborts

        assert one_run() == one_run()

    def test_replay_reproduces_recorded_choices(self):
        programs = make_workload("readwrite", CFG)
        sched = NemesisScheduler(3)
        first = run_experiment(
            TL2TM(), MemorySpec(), programs, concurrency=4,
            scheduler=sched, seed=3,
        )
        replayed = run_experiment(
            TL2TM(), MemorySpec(), make_workload("readwrite", CFG),
            concurrency=4, scheduler=ReplayScheduler(sched.choices), seed=3,
        )
        assert replayed.commits == first.commits
        assert replayed.aborts == first.aborts

    def test_replay_divergence_raises(self):
        programs = make_workload("readwrite", CFG)
        with pytest.raises(MachineError, match="replay diverged"):
            run_experiment(
                TL2TM(), MemorySpec(), programs, concurrency=4,
                scheduler=ReplayScheduler([0]), seed=0,
            )

    def test_factory_names(self):
        assert type(make_scheduler("nemesis", 1)).__name__ == "NemesisScheduler"
        assert type(make_scheduler("random", 1)).__name__ == "RandomScheduler"
        assert type(make_scheduler("rr")).__name__ == "RoundRobinScheduler"
        with pytest.raises(ValueError):
            make_scheduler("fair-coin")


class TestRecoveryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RecoveryPolicy(jitter=0.0, escalate_after=None)
        quanta = [policy.on_abort(0, n, AbortKind.CONFLICT)[0] for n in (1, 2, 3, 9)]
        assert quanta == [2, 4, 8, 64]  # base 2, cap 64

    def test_escalation_threshold(self):
        policy = RecoveryPolicy(escalate_after=3)
        assert policy.on_abort(0, 2, AbortKind.CONFLICT)[1] is False
        assert policy.on_abort(0, 3, AbortKind.CONFLICT)[1] is True
        assert policy.stats["recovery.escalation"] == 1

    def test_jitter_is_seeded(self):
        a = [RecoveryPolicy(seed=4).on_abort(0, n, AbortKind.CONFLICT)[0]
             for n in range(1, 8)]
        b = [RecoveryPolicy(seed=4).on_abort(0, n, AbortKind.CONFLICT)[0]
             for n in range(1, 8)]
        assert a == b

    def test_presets(self):
        assert make_policy("none", 0).on_abort(0, 5, AbortKind.CONFLICT) == (0, False)
        aggressive = make_policy("aggressive", 0)
        assert aggressive.on_abort(0, 3, AbortKind.CONFLICT)[1] is True
        patient = make_policy("patient", 0)
        assert patient.on_abort(0, 50, AbortKind.CONFLICT)[1] is False
        with pytest.raises(ValueError):
            make_policy("yolo", 0)


class TestConformanceGate:
    @pytest.mark.parametrize("strategy", sorted(ALL_ALGORITHMS))
    def test_every_strategy_survives_a_seeded_plan(self, strategy):
        plan = FaultPlan.generate(17, events=4, jobs=CFG.transactions)
        algorithm, spec, programs = chaos_setup(strategy, CFG)
        outcome = run_chaos(algorithm, spec, programs, plan, seed=17)
        assert outcome.ok, [str(f) for f in outcome.failures]
        assert outcome.commits > 0

    def test_chaos_run_reproduces_from_seed_and_plan(self):
        plan = FaultPlan.generate(23, events=5, jobs=CFG.transactions)
        runs = []
        for _ in range(2):
            algorithm, spec, programs = chaos_setup("dependent", CFG)
            runs.append(run_chaos(algorithm, spec, programs, plan, seed=23))
        assert runs[0].choices == runs[1].choices
        assert runs[0].commits == runs[1].commits
        assert runs[0].injected == runs[1].injected

    def test_chaos_run_reproduces_from_recorded_choices(self):
        plan = FaultPlan.generate(29, events=4, jobs=CFG.transactions)
        algorithm, spec, programs = chaos_setup("boosting", CFG)
        first = run_chaos(algorithm, spec, programs, plan, seed=29)
        algorithm, spec, programs = chaos_setup("boosting", CFG)
        replayed = run_chaos(
            algorithm, spec, programs, plan, seed=29,
            replay_choices=first.choices,
        )
        assert replayed.commits == first.commits
        assert replayed.injected == first.injected
        assert replayed.ok == first.ok

    def test_suite_runs_and_aggregates(self):
        report = run_suite(
            ["tl2", "globallock"], CFG, plans_per_strategy=2, base_seed=1,
        )
        assert report.total_plans == 4
        assert report.total_injected > 0
        assert set(report.strategies) == {"tl2", "globallock"}
        assert report.ok, [f.to_dict() for f in report.failures]
        payload = report.to_dict()
        assert payload["total_plans"] == 4

    def test_gate_flags_nonopacity_the_nemesis_found(self):
        """The relabel witness: earlyrelease produces a non-opaque aborted
        view on a *fault-free* nemesis schedule (seed found by sweep), so
        its ``opaque`` flag is — and must stay — False, like dependent's."""
        config = WorkloadConfig(
            transactions=4, ops_per_tx=3, keys=4, read_ratio=0.5, seed=0
        )
        algorithm, spec, programs = chaos_setup("earlyrelease", config)
        assert algorithm.opaque is False
        from repro.checking.tms2 import decide_history_opaque_tms2

        result = run_experiment(
            algorithm, spec, programs, concurrency=4,
            scheduler=NemesisScheduler(3), seed=3, verify=False, compact=False,
        )
        verdict = decide_history_opaque_tms2(spec, result.runtime.history)
        assert verdict.violations  # the inconsistent aborted view is real
        # ... but the committed history still serializes: the gate holds.
        assert conformance_failures(algorithm, spec, result) == []


# -- the known-bug fixture: a strategy that mishandles a crash ----------------
# Promoted to the bug zoo (repro.tm.broken) for the fuzzer's sensitivity
# gate; the shrinker tests keep using it as their reference fixture.

from repro.tm.broken import BrokenCrashTM


class TestShrinker:
    PLAN = FaultPlan(
        seed=31,
        events=(
            FaultEvent(FaultKind.LOCK_DENY, count=2),
            FaultEvent(FaultKind.STALL, job=1, duration=3),
            FaultEvent(FaultKind.CRASH_COMMIT, job=2, count=2),
            FaultEvent(FaultKind.FORCED_ABORT, job=0, after=2),
        ),
    )

    @staticmethod
    def _failing(plan: FaultPlan) -> bool:
        programs = make_workload("readwrite", CFG)
        outcome = run_chaos(
            BrokenCrashTM(), MemorySpec(), programs, plan, seed=31,
            scheduler="nemesis",
        )
        return not outcome.ok

    def test_fixture_is_caught_by_the_gate(self):
        programs = make_workload("readwrite", CFG)
        outcome = run_chaos(
            BrokenCrashTM(), MemorySpec(), programs, self.PLAN, seed=31,
            scheduler="nemesis",
        )
        assert not outcome.ok
        assert outcome.failures[0].check == "exception"
        assert "MS_END" in outcome.failures[0].detail

    def test_fixture_is_fault_dependent(self):
        """No faults, no failure — the bug only fires on the injected
        path, which is what makes the plan shrinkable."""
        assert not self._failing(FaultPlan(seed=31, events=()))

    def test_shrinker_finds_a_minimal_witness(self):
        minimal = shrink_plan(self.PLAN, self._failing)
        assert len(minimal.events) == 1
        event = minimal.events[0]
        assert event.kind is FaultKind.CRASH_COMMIT
        assert event.after == 0 and event.count == 1
        assert self._failing(minimal)

    def test_shrinker_rejects_a_passing_plan(self):
        with pytest.raises(ValueError):
            shrink_plan(FaultPlan(seed=31, events=()), self._failing)
