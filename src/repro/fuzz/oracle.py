"""The differential oracle: one corpus entry × one strategy → verdict.

A run is judged against *five* independent referees, none of which is the
strategy under test:

1. **exception** — nothing may escape the harness: a
   :class:`~repro.core.errors.CriterionViolation` or
   :class:`~repro.core.errors.MachineError` surfacing as an exception is
   a driver bug, not an abort;
2. **serializability / opacity / dirty-abort / state** — the PR 4
   conformance gate (:func:`~repro.faults.conformance.
   conformance_failures`) over the uncompacted final state: committed
   history strictly serializable, opaque strategies opaque, every abort
   structured, teardown quiescent;
3. **divergence** — the differential check proper, in the style of the
   opacity-to-linearizability reductions (PAPERS.md): the committed
   payload log must be coverable by an execution of the **atomic
   machine** on the committed jobs' original programs
   (:func:`~repro.core.serializability.atomic_cover_exists` — the
   literal right-hand side of Theorem 5.17's simulation).  Strategies
   whose declared contract is weaker (``atomic_reference = False``,
   currently elastic) are exempt; a strategy that rewrites or truncates
   programs while claiming ``atomic_reference = True`` is caught here
   and nowhere else;
4. **liveness** — a fault-*free* run must not permanently abort anyone:
   with the generous retry budget every real strategy converges, so
   starvation with zero injected faults is a driver bug (injected-fault
   runs may legitimately give up);
5. **determinism** — not a check inside one run but a property of the
   whole: a run is a pure function of ``(entry, strategy)``, witnessed
   by the normalized event stream and the verdict fingerprint (the
   replay regression test compares both).

Scheduling: a :class:`PrefixScheduler` spends the entry's recorded
choice prefix first (skipping choices that are not currently runnable —
mutated prefixes must guide, not wedge), then hands over to the seeded
adversarial nemesis.  Strict byte-replay stays the job of
:class:`~repro.faults.nemesis.ReplayScheduler` on *recorded* choice logs
(artifact replay verifies those too).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.atomic import payloads
from repro.core.serializability import atomic_cover_exists
from repro.faults.conformance import ChaosFailure, conformance_failures
from repro.faults.nemesis import NemesisScheduler
from repro.faults.plan import FaultInjector
from repro.faults.recovery import make_policy
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.coverage import CoverageKey, coverage_from_events
from repro.obs.tracer import RecordingTracer, TraceEvent
from repro.runtime.harness import run_experiment
from repro.runtime.scheduler import Scheduler
from repro.specs import get_spec
from repro.tm import ALL_ALGORITHMS, TMAlgorithm
from repro.tm.base import StepStatus, TxStepper
from repro.tm.broken import BROKEN_ALGORITHMS

#: the atomic-cover check enumerates whole-transaction interleavings of
#: the committed jobs; past this many commits it is skipped (recorded on
#: the run so the engine can tell "checked and passed" from "too big")
DIFF_COMMIT_LIMIT = 5

#: retry budget: well above HTM's serialised fallback threshold (8), so a
#: fault-free permanent abort really is starvation, not impatience
MAX_RETRIES = 20


def enabled_strategies() -> List[str]:
    """The real strategies the fuzzer exercises: every registry entry
    except ``hybrid``, which needs a ProductSpec workload the generic
    corpus cannot express (same carve-out as ``repro compare``)."""
    return [name for name in sorted(ALL_ALGORITHMS) if name != "hybrid"]


def make_algorithm(strategy: str) -> TMAlgorithm:
    """Instantiate a real or zoo strategy by name."""
    if strategy in ALL_ALGORITHMS:
        return ALL_ALGORITHMS[strategy]()
    if strategy in BROKEN_ALGORITHMS:
        return BROKEN_ALGORITHMS[strategy]()
    known = ", ".join(sorted(ALL_ALGORITHMS) + sorted(BROKEN_ALGORITHMS))
    raise KeyError(f"unknown strategy {strategy!r}; known: {known}")


class PrefixScheduler(Scheduler):
    """Replay a choice prefix leniently, then go adversarial.

    Prefix entries naming a job that is not currently runnable are
    skipped (a mutated prefix is guidance, not a strict witness); once
    the prefix is spent, picks delegate to an embedded seeded
    :class:`~repro.faults.nemesis.NemesisScheduler`.  Choices actually
    taken are recorded, so any run can still be byte-replayed strictly.
    """

    record_choices = True

    def __init__(self, prefix: Sequence[Optional[int]], seed: int = 0):
        super().__init__()
        self.seed = seed
        self._prefix = tuple(prefix)
        self._cursor = 0
        self._inner = NemesisScheduler(seed)

    def describe(self) -> Dict:
        return {
            "class": type(self).__name__,
            "seed": self.seed,
            "prefix": len(self._prefix),
        }

    def pick(self, runnable: Sequence[TxStepper]) -> TxStepper:
        while self._cursor < len(self._prefix):
            job = self._prefix[self._cursor]
            self._cursor += 1
            for stepper in runnable:
                if stepper.job_id == job:
                    return stepper
        return self._inner.pick(runnable)


def normalize_events(events: Sequence[TraceEvent]) -> Tuple[Tuple, ...]:
    """The deterministic projection of an event stream: everything except
    wall-clock fields (``ts``/``dur``) and the process-local ``pid``.
    Two runs of the same ``(entry, strategy)`` produce *identical*
    normalized streams — the replay-determinism contract."""
    return tuple(
        (
            event.name,
            event.cat,
            event.ph,
            event.tid,
            json.dumps(event.args, sort_keys=True, default=repr),
        )
        for event in events
    )


@dataclass
class StrategyRun:
    """Outcome of one entry × strategy differential run."""

    strategy: str
    entry: CorpusEntry
    ok: bool
    failures: List[ChaosFailure] = field(default_factory=list)
    commits: int = 0
    aborts: int = 0
    permanently_aborted: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    coverage: Set[CoverageKey] = field(default_factory=set)
    choices: Tuple[Optional[int], ...] = ()
    normalized_events: Tuple[Tuple, ...] = ()
    committed_payloads: Tuple = ()
    divergence_checked: bool = False

    @property
    def failure_checks(self) -> List[str]:
        return sorted({f.check for f in self.failures})

    def fingerprint(self) -> str:
        """The verdict fingerprint: a content hash of everything the
        oracle concluded.  Wall-clock-free and process-free, so equal
        across reruns, ``--jobs`` settings and worker processes."""
        payload = {
            "strategy": self.strategy,
            "entry": self.entry.fingerprint(),
            "ok": self.ok,
            "failures": [[f.check, f.detail] for f in self.failures],
            "commits": self.commits,
            "aborts": self.aborts,
            "permanently_aborted": self.permanently_aborted,
            "committed": [list(p) for p in self.committed_payloads],
            "choices": list(self.choices),
        }
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=repr
        )
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def run_entry(
    entry: CorpusEntry,
    strategy: str,
    max_retries: int = MAX_RETRIES,
    tracer=None,
) -> StrategyRun:
    """Run ``entry`` under ``strategy`` and judge it.

    Deterministic from its arguments: the spec is rebuilt from the
    registry, the scheduler/recovery/injector all derive from the entry,
    and no ambient state leaks in.

    ``tracer`` may be any recorder exposing ``.events`` (a
    :class:`~repro.obs.tracer.RecordingTracer` by default; the engine
    passes a bounded :class:`~repro.obs.flight.FlightRecorder` when
    re-running a failure to produce a dump artifact) — coverage and the
    normalized stream are derived from whatever it captured.
    """
    algorithm = make_algorithm(strategy)
    spec = get_spec(entry.spec)
    if tracer is None:
        tracer = RecordingTracer()
    injector = FaultInjector(entry.plan)
    scheduler = PrefixScheduler(entry.choice_prefix, seed=entry.seed)
    recovery = make_policy("default", entry.seed)
    try:
        result = run_experiment(
            algorithm,
            spec,
            entry.programs,
            concurrency=max(1, len(entry.programs)),
            scheduler=scheduler,
            seed=entry.seed,
            verify=False,  # the oracle runs every checker itself
            compact=False,  # ... over the full, uncompacted log
            max_retries=max_retries,
            tracer=tracer,
            injector=injector,
            recovery=recovery,
        )
    except Exception as exc:  # CriterionViolation, MachineError, anything
        run = StrategyRun(
            strategy=strategy,
            entry=entry,
            ok=False,
            failures=[ChaosFailure("exception", f"{type(exc).__name__}: {exc}")],
            injected=dict(injector.stats),
            choices=tuple(scheduler.choices),
        )
        run.coverage = coverage_from_events(strategy, tracer.events, run.injected)
        run.normalized_events = normalize_events(tracer.events)
        return run

    failures = conformance_failures(algorithm, spec, result)
    runtime = result.runtime

    # 2b. the opaque fragment, §6.1 form (1): a strategy claiming
    # ``opaque`` must never PULL an uncommitted entry.  The TMS2 decision
    # judges responses, so a dirty pull no response depended on passes
    # it — but the stepper records ``pulled_uncommitted`` on every
    # abort, which is exactly the fragment's syntactic criterion.
    if algorithm.opaque:
        for record in runtime.history.records:
            if record.pulled_uncommitted:
                failures.append(
                    ChaosFailure(
                        "opacity",
                        f"opaque strategy pulled uncommitted operations in "
                        f"tx {record.tx_id}: "
                        + ", ".join(
                            op.pretty() for op in record.pulled_uncommitted[:3]
                        ),
                    )
                )

    # 3. the differential check: committed effects vs the atomic machine
    committed_ops = runtime.machine.global_log.committed_ops()
    committed_programs = [
        stepper.program
        for stepper in result.steppers
        if stepper.status is StepStatus.COMMITTED
    ]
    divergence_checked = False
    if (
        algorithm.atomic_reference
        and committed_ops
        and len(committed_programs) <= DIFF_COMMIT_LIMIT
    ):
        divergence_checked = True
        if not atomic_cover_exists(spec, committed_programs, committed_ops):
            failures.append(
                ChaosFailure(
                    "divergence",
                    f"committed log ({len(committed_ops)} ops) not covered "
                    f"by any atomic execution of the "
                    f"{len(committed_programs)} committed programs",
                )
            )

    # 4. liveness: fault-free starvation is a bug
    if (
        result.permanently_aborted > 0
        and injector.stats.get("fault.injected", 0) == 0
    ):
        failures.append(
            ChaosFailure(
                "liveness",
                f"{result.permanently_aborted} job(s) permanently aborted "
                f"with no faults injected (retry budget {max_retries})",
            )
        )

    run = StrategyRun(
        strategy=strategy,
        entry=entry,
        ok=not failures,
        failures=failures,
        commits=result.commits,
        aborts=result.aborts,
        permanently_aborted=result.permanently_aborted,
        injected=dict(injector.stats),
        choices=tuple(scheduler.choices),
        committed_payloads=tuple(payloads(committed_ops)),
        divergence_checked=divergence_checked,
    )
    run.coverage = coverage_from_events(strategy, tracer.events, run.injected)
    run.normalized_events = normalize_events(tracer.events)
    return run
