"""The experiment harness: algorithm × workload × scheduler → metrics.

:func:`run_experiment` spawns ``concurrency`` transactions at a time from
the workload queue, interleaves them with the scheduler, and (optionally)
verifies the committed history by the serializability half of the history
walk (:func:`~repro.checking.tms2.decide_history`) — the empirical form of
Theorem 5.17 at workload scale.

Throughput proxy: committed transactions per scheduler quantum.  The
simulation has no wall-clock contention, so quanta — machine rule
applications interleaved fairly — are the faithful cost unit: a TM that
wastes quanta on doomed work or waiting shows up exactly as the paper's
narrative predicts (optimists waste aborted work under contention,
pessimists waste waiting time under low contention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.checking.tms2 import HistoryVerdict, decide_history
from repro.core.errors import SerializabilityViolation
from repro.core.language import Code
from repro.core.spec import SequentialSpec
from repro.faults.plan import NULL_INJECTOR, NullInjector
from repro.faults.recovery import RecoveryPolicy
from repro.obs.tracer import CAT_RUNTIME, NULL_TRACER, Tracer
from repro.runtime.scheduler import Scheduler, make_scheduler
from repro.tm.base import Runtime, StepStatus, TMAlgorithm, TxStepper


@dataclass
class ExperimentResult:
    """Aggregated outcome of one harness run.

    ``runtime`` is ``None`` only for results constructed by hand (e.g. in
    tests); every :func:`run_experiment` result carries its runtime so
    callers can inspect the history and machine.
    """

    algorithm: str
    commits: int
    aborts: int
    permanently_aborted: int
    total_steps: int
    rule_counts: Dict[str, int]
    serialization: Optional[HistoryVerdict]
    runtime: Optional[Runtime] = field(repr=False, default=None)
    steppers: List[TxStepper] = field(repr=False, default_factory=list)

    @property
    def throughput(self) -> float:
        """Committed transactions per scheduling quantum (see module doc).

        An *empty run* (no programs, hence no scheduling quanta) has no
        meaningful rate; it reports ``0.0`` explicitly rather than hiding
        behind a ``max(1, …)`` denominator."""
        if self.total_steps == 0:
            return 0.0
        return self.commits / self.total_steps

    @property
    def abort_rate(self) -> float:
        """Aborted attempts per attempt.  ``0.0`` on an empty run (zero
        attempts), by the same explicit-empty-case convention as
        :attr:`throughput`."""
        attempts = self.commits + self.aborts
        if attempts == 0:
            return 0.0
        return self.aborts / attempts

    def summary_row(self) -> str:
        serial = "-"
        if self.serialization is not None:
            serial = "yes" if self.serialization.serializable else "NO"
        return (
            f"{self.algorithm:<12} commits={self.commits:<5} "
            f"aborts={self.aborts:<5} abort_rate={self.abort_rate:<6.2f} "
            f"steps={self.total_steps:<7} throughput={self.throughput:<8.4f} "
            f"serializable={serial}"
        )


def run_experiment(
    algorithm: TMAlgorithm,
    spec: SequentialSpec,
    programs: Sequence[Code],
    concurrency: int = 4,
    scheduler: Optional[Scheduler] = None,
    seed: int = 0,
    verify: bool = True,
    max_retries: int = 200,
    check_gray_criteria: bool = True,
    tracer: Tracer = NULL_TRACER,
    injector: NullInjector = NULL_INJECTOR,
    recovery: Optional[RecoveryPolicy] = None,
    compact: Optional[bool] = None,
) -> ExperimentResult:
    """Run ``programs`` under ``algorithm`` with up to ``concurrency``
    transactions in flight.

    ``verify=True`` keeps the full global log (no compaction) and decides
    serializability of the committed history (real-time order respected,
    covering the machine's committed log); benchmarks that only
    measure throughput pass ``verify=False`` and let the runtime compact.
    ``compact`` overrides that coupling: the chaos harness passes
    ``verify=False, compact=False`` because its conformance gate runs the
    checkers itself over the *uncompacted* log.

    ``tracer`` is threaded through every layer (machine rules, mover
    oracles, scheduler quanta, driver lifecycle); the default
    :data:`~repro.obs.tracer.NULL_TRACER` records nothing and costs
    (almost) nothing.

    ``injector`` arms the :mod:`repro.faults` hook points (disarmed by
    default); ``recovery`` swaps the steppers' built-in backoff for a
    :class:`~repro.faults.recovery.RecoveryPolicy`.
    """
    scheduler = scheduler or make_scheduler("random", seed)
    if compact is None:
        compact = not verify
    runtime = Runtime(
        spec,
        check_gray_criteria=check_gray_criteria,
        compact_every=64 if compact else None,
        tracer=tracer,
        injector=injector,
    )
    if tracer.enabled:
        # Replayability: the harness seed alone is not enough when the
        # caller passed a pre-built scheduler — record the scheduler's own
        # class and seed too (ISSUE 4 satellite).
        tracer.instant(
            "harness.run",
            CAT_RUNTIME,
            args={
                "algorithm": algorithm.name,
                "programs": len(programs),
                "concurrency": concurrency,
                "seed": seed,
                "scheduler": scheduler.describe(),
            },
        )
    steppers = [
        TxStepper(algorithm, runtime, program, max_retries=max_retries, job_id=i,
                  recovery=recovery)
        for i, program in enumerate(programs)
    ]
    # Admission control: release steppers in waves of `concurrency`.
    for start in range(0, len(steppers), max(1, concurrency)):
        wave = steppers[start : start + max(1, concurrency)]
        scheduler.run(wave, tracer=tracer)

    commits = sum(1 for s in steppers if s.status is StepStatus.COMMITTED)
    permanently_aborted = sum(
        1 for s in steppers if s.status is StepStatus.ABORTED
    )
    aborts = sum(s.stats.aborts for s in steppers)
    total_steps = sum(s.stats.steps for s in steppers)
    if tracer.enabled:
        tracer.instant(
            "harness.done",
            CAT_RUNTIME,
            args={
                "algorithm": algorithm.name,
                "commits": commits,
                "aborts": aborts,
                "steps": total_steps,
            },
        )

    serialization = None
    if verify:
        serialization = decide_history(
            spec,
            runtime.history,
            runtime.machine.global_log.committed_ops(),
            opacity=False,
        )
        if serialization.exhaustive and not serialization.serializable:
            # Black box first: if the tracer is a flight recorder with a
            # destination, ship the last-N-events dump with the failure.
            from repro.obs.flight import maybe_dump

            dump_path = maybe_dump(
                tracer,
                label=f"harness-{algorithm.name}-seed{seed}",
                reason="serializability",
                meta={"algorithm": algorithm.name, "seed": seed},
            )
            suffix = f" [flight dump: {dump_path}]" if dump_path else ""
            error = SerializabilityViolation(
                f"{algorithm.name}: committed history is not serializable "
                f"(searched {serialization.steps} serial prefixes){suffix}"
            )
            error.flight_dump = dump_path
            raise error

    return ExperimentResult(
        algorithm=algorithm.name,
        commits=commits,
        aborts=aborts,
        permanently_aborted=permanently_aborted,
        total_steps=total_steps,
        rule_counts=dict(runtime.rule_counts),
        serialization=serialization,
        runtime=runtime,
        steppers=list(steppers),
    )
