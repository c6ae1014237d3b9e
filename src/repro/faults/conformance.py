"""Conformance-gated chaos runs: prove the guarantees survive the nemesis.

A *chaos run* is one harness run with the adversarial scheduler, an armed
:class:`~repro.faults.plan.FaultInjector` and a recovery policy.  The
**conformance gate** then asserts everything Theorem 5.17 (plus §6.1 for
the opaque fragment) promises even under injected hostility:

1. no exception escapes the run — an injected fault that surfaces as a
   :class:`~repro.core.errors.CriterionViolation` or
   :class:`~repro.core.errors.MachineError` is a driver bug, not an abort;
2. the committed history is serializable: some real-time-respecting
   serial order is allowed and covers the machine's committed log;
3. for opaque strategies, every recorded view — committed and aborted —
   linearizes against TMS2 at every window size: exhaustively up to
   seven commits (``opacity-tms2``), and through the commit-order
   witness alone past that (``opacity-witness``) — checks 2 and 3 are
   one walk over the history (:func:`~repro.checking.tms2.
   decide_history`), which finds each verdict its own witness order;
4. every aborted attempt is a *clean* abort (structured
   :class:`~repro.core.errors.AbortKind`, never a missing one);
5. the machine and runtime end quiescent: no uncommitted global-log
   entries, no stranded local-log entries, no leaked locks, tokens,
   dependency dooms or active tids.

Any failing ``(seed, plan)`` reproduces deterministically (rebuild the
nemesis from the seed, or byte-replay the recorded choices), and
:func:`shrink_plan` delta-debugs the plan down to a minimal witness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.checking.tms2 import decide_history
from repro.core.spec import SequentialSpec
from repro.faults.nemesis import ReplayScheduler
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.recovery import RecoveryPolicy, make_policy
from repro.obs.flight import FlightRecorder, maybe_dump
from repro.obs.profiling import Profile
from repro.obs.tracer import NULL_TRACER, RecordingTracer, Tracer
from repro.runtime.harness import run_experiment
from repro.runtime.scheduler import Scheduler, make_scheduler
from repro.runtime.workload import WorkloadConfig, make_workload
from repro.tm import ALL_ALGORITHMS, TMAlgorithm
from repro.tm.base import Runtime


@dataclass(frozen=True)
class ChaosFailure:
    """One conformance-gate violation."""

    #: the gate's kinds: exception | serializability | opacity-tms2 |
    #: opacity-witness | dirty-abort | state.  The fuzz oracle adds
    #: opacity (an opaque strategy PULLed an uncommitted entry) |
    #: divergence | liveness.
    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.detail}"


@dataclass
class ChaosResult:
    """Outcome of one conformance-gated chaos run."""

    algorithm: str
    seed: int
    plan: FaultPlan
    ok: bool
    failures: List[ChaosFailure]
    commits: int = 0
    aborts: int = 0
    permanently_aborted: int = 0
    total_steps: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    recovery: Dict[str, int] = field(default_factory=dict)
    #: recorded scheduler choice log (replay witness)
    choices: Tuple[Optional[int], ...] = ()
    elapsed_sec: float = 0.0
    #: path of the flight-recorder dump auto-written on a gate failure
    #: (``None`` when the run passed or no recorder was armed)
    flight_dump: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "plan": self.plan.to_dict(),
            "ok": self.ok,
            "failures": [str(f) for f in self.failures],
            "commits": self.commits,
            "aborts": self.aborts,
            "permanently_aborted": self.permanently_aborted,
            "total_steps": self.total_steps,
            "injected": dict(self.injected),
            "recovery": dict(self.recovery),
            "elapsed_sec": round(self.elapsed_sec, 4),
            "flight_dump": self.flight_dump,
        }


def conformance_failures(
    algorithm: TMAlgorithm,
    spec: SequentialSpec,
    runtime: Runtime,
) -> List[ChaosFailure]:
    """Gate checks 2–5 over a finished run's runtime."""
    failures: List[ChaosFailure] = []
    history = runtime.history
    machine = runtime.machine

    # 2–3. one walk: serializability of the committed history (real-time
    # order respected, covering the committed log) and, for the opaque
    # fragment, opacity at every window size.  Past the exhaustive bound
    # only the commit-order witness is tried, so an opacity rejection
    # there files under its own kind.
    verdict = decide_history(
        spec,
        history,
        machine.global_log.committed_ops(),
        opacity=algorithm.opaque,
    )
    if not verdict.serializable:
        qualifier = "" if verdict.exhaustive else " (search not exhaustive)"
        failures.append(
            ChaosFailure(
                "serializability",
                f"no serial witness in {verdict.steps} serial prefixes for "
                f"{history.commit_count()} commits{qualifier}",
            )
        )
    kind = "opacity-tms2" if verdict.exhaustive else "opacity-witness"
    failures.extend(ChaosFailure(kind, v) for v in verdict.violations)

    # 4. clean aborts: every aborted attempt carries a structured kind
    for record in history.aborted_records():
        if record.abort_kind is None:
            failures.append(
                ChaosFailure(
                    "dirty-abort",
                    f"tx {record.tx_id} aborted without a structured kind",
                )
            )

    # 5. quiescent end state: nothing leaked, nothing stranded
    for entry in machine.global_log:
        if not entry.is_committed:
            failures.append(
                ChaosFailure("state", f"uncommitted global-log entry: {entry.op}")
            )
    for thread in machine.threads:
        if len(thread.local) != 0:
            failures.append(
                ChaosFailure(
                    "state",
                    f"thread {thread.tid} stranded {len(thread.local)} "
                    "local-log entries",
                )
            )
    held = runtime.locks.all_held()
    if held:
        failures.append(ChaosFailure("state", f"leaked abstract locks: {held}"))
    leaked_tokens = {
        name: holder for name, holder in runtime.tokens.items() if holder is not None
    }
    if leaked_tokens:
        failures.append(ChaosFailure("state", f"leaked tokens: {leaked_tokens}"))
    doomed = runtime.dependencies.doomed_tids()
    if doomed:
        failures.append(
            ChaosFailure("state", f"undrained doomed consumers: {sorted(doomed)}")
        )
    if runtime.active_tids:
        failures.append(
            ChaosFailure("state", f"active tids after run: {sorted(runtime.active_tids)}")
        )
    return failures


def run_chaos(
    algorithm: TMAlgorithm,
    spec: SequentialSpec,
    programs: Sequence,
    plan: FaultPlan,
    seed: Optional[int] = None,
    scheduler: str = "nemesis",
    recovery: Optional[RecoveryPolicy] = None,
    replay_choices: Optional[Sequence[Optional[int]]] = None,
    concurrency: Optional[int] = None,
    max_retries: int = 12,
    tracer: Tracer = NULL_TRACER,
    flight_dir: Optional[str] = None,
    profile: Optional[Profile] = None,
) -> ChaosResult:
    """One conformance-gated chaos run.

    Deterministic from ``(seed, plan)``: the scheduler, the recovery
    jitter and the injector all derive from them and nothing else.  Pass
    ``replay_choices`` (a prior result's ``choices``) to byte-replay a
    recorded interleaving instead of rebuilding the scheduler.

    ``profile`` accumulates span attribution (records the run with a
    full :class:`~repro.obs.tracer.RecordingTracer`); ``flight_dir``
    arms a bounded :class:`~repro.obs.flight.FlightRecorder` instead,
    whose tail is auto-dumped there when the gate fails.  Both only
    apply when the caller didn't pass an explicit ``tracer``.
    """
    seed = plan.seed if seed is None else seed
    injector = FaultInjector(plan)
    sched: Scheduler
    if replay_choices is not None:
        sched = ReplayScheduler(replay_choices)
    else:
        sched = make_scheduler(scheduler, seed)
        sched.record_choices = True
    policy = recovery if recovery is not None else make_policy("default", seed)
    own_tracer = tracer is NULL_TRACER
    if profile is not None and own_tracer:
        tracer = RecordingTracer()
    elif flight_dir is not None and own_tracer:
        tracer = FlightRecorder(auto_dump_dir=flight_dir)

    def _finish_profile() -> None:
        if profile is not None and own_tracer:
            profile.add_tracer(tracer)

    started = time.perf_counter()
    try:
        result = run_experiment(
            algorithm,
            spec,
            programs,
            concurrency=concurrency if concurrency is not None else len(programs),
            scheduler=sched,
            seed=seed,
            verify=False,  # the gate runs the checkers itself (no raising)
            compact=False,  # ... over the full, uncompacted log
            max_retries=max_retries,
            injector=injector,
            recovery=policy,
            tracer=tracer,
        )
    except Exception as exc:  # CriterionViolation, MachineError, anything
        _finish_profile()
        return ChaosResult(
            algorithm=algorithm.name,
            seed=seed,
            plan=plan,
            ok=False,
            failures=[ChaosFailure("exception", f"{type(exc).__name__}: {exc}")],
            injected=dict(injector.stats),
            recovery=policy.snapshot(),
            choices=tuple(sched.choices),
            elapsed_sec=time.perf_counter() - started,
            flight_dump=maybe_dump(
                tracer,
                label=f"chaos-{algorithm.name}-seed{seed}",
                reason="exception",
                meta={"seed": seed, "error": f"{type(exc).__name__}: {exc}"},
            ),
        )
    failures = conformance_failures(algorithm, spec, result.runtime)
    _finish_profile()
    flight_dump = None
    if failures:
        flight_dump = maybe_dump(
            tracer,
            label=f"chaos-{algorithm.name}-seed{seed}",
            reason=failures[0].check,
            meta={"seed": seed, "failures": [str(f) for f in failures]},
        )
    return ChaosResult(
        algorithm=algorithm.name,
        seed=seed,
        plan=plan,
        ok=not failures,
        failures=failures,
        commits=result.commits,
        aborts=result.aborts,
        permanently_aborted=result.permanently_aborted,
        total_steps=result.total_steps,
        injected=dict(injector.stats),
        recovery=policy.snapshot(),
        choices=tuple(sched.choices),
        elapsed_sec=time.perf_counter() - started,
        flight_dump=flight_dump,
    )


# -- workload construction -----------------------------------------------------


def chaos_setup(
    strategy: str, config: WorkloadConfig, workload: str = "readwrite"
) -> Tuple[TMAlgorithm, SequentialSpec, list]:
    """(algorithm, spec, programs) for one strategy.

    Every registry strategy is covered: ``hybrid`` needs a
    :class:`~repro.specs.product.ProductSpec` workload (boosted map +
    HTM counter words), so it gets a purpose-built one regardless of the
    requested workload; everything else runs the requested workload.
    """
    from repro.core.language import call, tx
    from repro.specs import CounterSpec, KVMapSpec, get_spec
    from repro.specs.product import ProductSpec

    if strategy == "hybrid":
        import random as _random

        spec = ProductSpec({"kv": KVMapSpec(), "ctr": CounterSpec()})
        rng = _random.Random(config.seed)
        programs = []
        for i in range(config.transactions):
            key = ("k", rng.randrange(max(1, config.keys)))
            body = [call("kv.put", key, i), call("ctr.inc")]
            if rng.random() < config.read_ratio:
                body.append(call("kv.get", key))
            programs.append(tx(*body))
        algorithm: TMAlgorithm = ALL_ALGORITHMS["hybrid"](
            htm_components=frozenset({"ctr"})
        )
        return algorithm, spec, programs

    spec_name = {
        "readwrite": "memory",
        "map": "kvmap",
        "set": "set",
        "counter": "counter",
        "bank": "bank",
    }[workload]
    algorithm = ALL_ALGORITHMS[strategy]()
    return algorithm, get_spec(spec_name), make_workload(workload, config)


# -- suite runner (shared by `repro chaos` and the faults perf tier) ----------


@dataclass
class SuiteReport:
    """Aggregated chaos suite over strategies × seeded plans."""

    plans_per_strategy: int
    base_seed: int
    scheduler: str
    workload: str
    strategies: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    failures: List[ChaosResult] = field(default_factory=list)
    elapsed_sec: float = 0.0

    @property
    def total_plans(self) -> int:
        return sum(row["plans"] for row in self.strategies.values())

    @property
    def total_injected(self) -> int:
        return sum(row["injected"] for row in self.strategies.values())

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plans_per_strategy": self.plans_per_strategy,
            "base_seed": self.base_seed,
            "scheduler": self.scheduler,
            "workload": self.workload,
            "total_plans": self.total_plans,
            "total_injected": self.total_injected,
            "ok": self.ok,
            "strategies": self.strategies,
            "failures": [f.to_dict() for f in self.failures],
            "elapsed_sec": round(self.elapsed_sec, 3),
        }


def run_suite(
    strategies: Sequence[str],
    config: WorkloadConfig,
    plans_per_strategy: int = 20,
    base_seed: int = 0,
    events_per_plan: int = 4,
    scheduler: str = "nemesis",
    workload: str = "readwrite",
    max_retries: int = 12,
    on_result: Optional[Callable[[str, ChaosResult], None]] = None,
    flight_dir: Optional[str] = None,
    profile: Optional[Profile] = None,
) -> SuiteReport:
    """The default nemesis suite: for each strategy, ``plans_per_strategy``
    seed-derived plans under the adversarial scheduler, each run gated.

    Plan seeds are a deterministic function of ``(base_seed, strategy
    index, plan index)``, so the whole suite reproduces from its base
    seed, and any single failure reproduces from its printed seed alone.

    ``flight_dir``/``profile`` are forwarded to every :func:`run_chaos`
    (flight dumps on failing runs, span attribution across the suite).
    """
    report = SuiteReport(
        plans_per_strategy=plans_per_strategy,
        base_seed=base_seed,
        scheduler=scheduler,
        workload=workload,
    )
    started = time.perf_counter()
    for strategy_index, strategy in enumerate(strategies):
        row: Dict[str, Any] = {
            "plans": 0,
            "gate_failures": 0,
            "commits": 0,
            "aborts": 0,
            "permanently_aborted": 0,
            "injected": 0,
            "injected_by_kind": {},
            "surfaced_injected_aborts": 0,
            "recovery": {},
            "elapsed_sec": 0.0,
        }
        for plan_index in range(plans_per_strategy):
            plan_seed = base_seed + 7919 * strategy_index + 104729 * plan_index
            plan = FaultPlan.generate(
                plan_seed, events=events_per_plan, jobs=config.transactions
            )
            # The workload derives from the *plan* seed so a failure
            # reproduces from its printed seed alone (and each plan gets a
            # distinct program mix for free).
            plan_config = replace(config, seed=plan_seed)
            algorithm, spec, programs = chaos_setup(strategy, plan_config, workload)
            outcome = run_chaos(
                algorithm,
                spec,
                programs,
                plan,
                seed=plan_seed,
                scheduler=scheduler,
                max_retries=max_retries,
                flight_dir=flight_dir,
                profile=profile,
            )
            row["plans"] += 1
            row["commits"] += outcome.commits
            row["aborts"] += outcome.aborts
            row["permanently_aborted"] += outcome.permanently_aborted
            row["injected"] += outcome.injected.get("fault.injected", 0)
            for key, value in outcome.injected.items():
                if key.startswith("fault.injected."):
                    kind = key[len("fault.injected."):]
                    row["injected_by_kind"][kind] = (
                        row["injected_by_kind"].get(kind, 0) + value
                    )
            for key, value in outcome.recovery.items():
                row["recovery"][key] = row["recovery"].get(key, 0) + value
            row["surfaced_injected_aborts"] += _surfaced_injected(outcome)
            row["elapsed_sec"] = round(row["elapsed_sec"] + outcome.elapsed_sec, 4)
            if not outcome.ok:
                row["gate_failures"] += 1
                report.failures.append(outcome)
            if on_result is not None:
                on_result(strategy, outcome)
        report.strategies[strategy] = row
    report.elapsed_sec = time.perf_counter() - started
    return report


def _surfaced_injected(outcome: ChaosResult) -> int:
    """How many injections surfaced as INJECTED-kind aborts.  Fewer than
    injections is legitimate: a driver may absorb a dropped PUSH by
    staying local (§6.5 release), an irrevocable transaction converts
    faults into waits, and stalls never abort anyone."""
    return outcome.injected.get(
        "fault.injected.forced-abort", 0
    ) + outcome.injected.get("fault.injected.crash-commit", 0)


# -- delta-debugging shrinker --------------------------------------------------


def shrink_plan(
    plan: FaultPlan, failing: Callable[[FaultPlan], bool]
) -> FaultPlan:
    """Minimise a failing plan to a minimal witness.

    ``failing(candidate)`` must deterministically re-run the chaos
    scenario and report whether the gate still fails — which it can,
    because a run is a pure function of ``(seed, plan)``.  Classic ddmin
    over the event list, then per-event attribute minimisation (``after``
    → 0, ``count`` → 1, ``duration`` → 1 where applicable).
    """
    if not failing(plan):
        raise ValueError("shrink_plan needs a failing plan to start from")

    def rebuild(events: Sequence) -> FaultPlan:
        return FaultPlan(seed=plan.seed, events=tuple(events))

    # Phase 1: ddmin on the event list.
    events = list(plan.events)
    granularity = 2
    while len(events) >= 2:
        chunk = max(1, len(events) // granularity)
        reduced = False
        for start in range(0, len(events), chunk):
            candidate = events[:start] + events[start + chunk:]
            if candidate and failing(rebuild(candidate)):
                events = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)

    # Phase 2: shrink each surviving event's numeric fields.
    for index in range(len(events)):
        event = events[index]
        for attr, floor in (("after", 0), ("count", 1), ("duration", 0)):
            value = getattr(event, attr)
            for trial in range(floor, value):
                candidate_event = _with_attr(event, attr, trial)
                candidate = events[:index] + [candidate_event] + events[index + 1:]
                if failing(rebuild(candidate)):
                    event = candidate_event
                    events[index] = event
                    break
        # Try dropping the job targeting (a job=None witness is simpler).
        if event.job is not None:
            candidate_event = _with_attr(event, "job", None)
            candidate = events[:index] + [candidate_event] + events[index + 1:]
            if failing(rebuild(candidate)):
                events[index] = candidate_event

    return rebuild(events)


def _with_attr(event, attr: str, value):
    from repro.faults.plan import FaultEvent

    data = event.to_dict()
    data[attr] = value.value if hasattr(value, "value") else value
    if attr == "kind":  # pragma: no cover - kinds are never rewritten
        data[attr] = value
    return FaultEvent.from_dict(data)
