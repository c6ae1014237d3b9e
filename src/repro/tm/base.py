"""Driver infrastructure shared by every TM algorithm.

:class:`Runtime` owns the (immutable) machine state, the history recorder
and the driver-level coordination structures (abstract lock table, tokens,
dependency registry).  Drivers mutate the runtime by *replacing* its
machine with the successor state a rule returns.

The runtime alone runs the transaction lifecycle, for the stepper and
the serve shard's 2PC participant alike: ``begin`` opens an attempt's
record, ``commit`` fires CMT and records the committed view, ``end``
releases the thread's locks and tokens and applies MS_END, ``abort`` rolls
back and records the aborted view, and ``rollover`` rebases onto the
committed state when ``leaks`` finds nothing held.

:class:`TxStepper` wraps one transaction attempt as a resumable generator:
the scheduler calls :meth:`TxStepper.step` repeatedly; each call advances
the attempt by one scheduling quantum (the code between two ``yield``\\ s of
the algorithm's :meth:`TMAlgorithm.attempt` generator — everything between
yields is uninterleaved, which is how drivers realise the paper's
"uninterleaved moment" at commit time).  :class:`~repro.core.errors.TMAbort`
raised inside an attempt triggers the generic rollback (UNPULL / UNPUSH /
UNAPP right-to-left — always criterion-clean, see :meth:`Runtime.rollback`)
and a retry with the same machine thread.

The stepper also exposes per-attempt counters (rule applications, aborts,
waits) that the harness aggregates into experiment metrics.
"""

from __future__ import annotations

import collections
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.errors import (
    AbortKind,
    CriterionViolation,
    MachineError,
    TMAbort,
)
from repro.core.history import History, TxRecord
from repro.core.language import Call, Code, Tx, sorted_choices, step as lang_step
from repro.core.logs import LocalLog, Pulled, Pushed
from repro.core.machine import Machine
from repro.core.ops import Op
from repro.core.spec import RebasedStateSpec, SequentialSpec, StateSpec
from repro.faults.plan import NULL_INJECTOR, NullInjector
from repro.faults.recovery import RECOVERY_TOKEN, RecoveryPolicy
from repro.obs.tracer import CAT_RUNTIME, CAT_TX, NULL_TRACER, Tracer


class LockTable:
    """Abstract locks keyed by footprint keys (transactional boosting).

    Two modes per key, as in real boosted data structures:

    * **exclusive** — required by mutators; conflicts with everything;
    * **shared** — sufficient for observers (``contains``, ``get``);
      multiple owners may hold a key shared simultaneously, and an owner
      may *upgrade* its own shared hold to exclusive if no one else
      shares it.

    Non-blocking acquire: :meth:`try_acquire` returns ``False`` (taking
    nothing) when any requested key is unavailable.  Re-entrant per owner.

    ``injector`` is a :mod:`repro.faults` hook: an armed injector may
    spuriously deny an acquisition (simulating a lock-acquire timeout),
    which surfaces through the driver's normal bounded-wait path.
    """

    def __init__(self, injector: NullInjector = NULL_INJECTOR) -> None:
        self._exclusive: Dict[Any, int] = {}
        self._shared: Dict[Any, Set[int]] = collections.defaultdict(set)
        self._held: Dict[int, Set[Any]] = collections.defaultdict(set)
        self._injector = injector

    def _can_take(self, owner: int, key: Any, shared: bool) -> bool:
        holder = self._exclusive.get(key)
        if holder is not None and holder != owner:
            return False
        if not shared:
            others = self._shared.get(key, set()) - {owner}
            if others:
                return False
        return True

    def try_acquire(
        self, owner: int, keys: frozenset, shared: bool = False
    ) -> bool:
        if self._injector.armed and self._injector.on_acquire(owner, keys, shared):
            return False
        for key in keys:
            if not self._can_take(owner, key, shared):
                return False
        for key in keys:
            if shared:
                if self._exclusive.get(key) != owner:
                    self._shared[key].add(owner)
            else:
                self._exclusive[key] = owner
                self._shared[key].discard(owner)  # upgrade
            self._held[owner].add(key)
        return True

    def release_all(self, owner: int) -> None:
        for key in self._held.pop(owner, ()):
            if self._exclusive.get(key) == owner:
                del self._exclusive[key]
            self._shared.get(key, set()).discard(owner)

    def holder(self, key: Any) -> Optional[int]:
        return self._exclusive.get(key)

    def shared_holders(self, key: Any) -> frozenset:
        return frozenset(self._shared.get(key, ()))

    def held_by(self, owner: int) -> frozenset:
        return frozenset(self._held.get(owner, ()))

    def all_held(self) -> Dict[int, frozenset]:
        """Every owner currently holding at least one key (the chaos
        conformance gate asserts this is empty after a run)."""
        return {
            owner: frozenset(keys)
            for owner, keys in self._held.items()
            if keys
        }


class DependencyRegistry:
    """Producer→consumer commit dependencies (§6.5).

    A consumer that PULLs an uncommitted operation of a producer registers
    the dependency; the producer's abort cascades (the dependent driver
    consults :meth:`doomed` before continuing)."""

    def __init__(self) -> None:
        self._consumers_of: Dict[int, Set[int]] = collections.defaultdict(set)
        self._producers_of: Dict[int, Set[int]] = collections.defaultdict(set)
        self._doomed: Set[int] = set()

    def depend(self, consumer_tid: int, producer_tid: int) -> None:
        self._consumers_of[producer_tid].add(consumer_tid)
        self._producers_of[consumer_tid].add(producer_tid)

    def would_cycle(self, consumer_tid: int, producer_tid: int) -> bool:
        """Would adding consumer→producer close a dependency cycle?  A
        cycle means neither party can ever satisfy CMT criterion (iii)
        (each waits for the other to commit first), so drivers must refuse
        to create one."""
        frontier = [producer_tid]
        seen = set()
        while frontier:
            current = frontier.pop()
            if current == consumer_tid:
                return True
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._producers_of.get(current, ()))
        return False

    def producers(self, consumer_tid: int) -> frozenset:
        return frozenset(self._producers_of.get(consumer_tid, ()))

    def consumers(self, producer_tid: int) -> frozenset:
        return frozenset(self._consumers_of.get(producer_tid, ()))

    def doomed_tids(self) -> frozenset:
        """Currently doomed (not yet detangled) consumers — the chaos
        conformance gate asserts this drains to empty."""
        return frozenset(self._doomed)

    def on_abort(self, producer_tid: int) -> None:
        """Doom every (transitive) consumer of ``producer_tid``."""
        frontier = [producer_tid]
        while frontier:
            current = frontier.pop()
            for consumer in self._consumers_of.pop(current, ()):
                if consumer not in self._doomed:
                    self._doomed.add(consumer)
                    frontier.append(consumer)

    def on_commit(self, producer_tid: int) -> None:
        for consumer in self._consumers_of.pop(producer_tid, ()):
            self._producers_of[consumer].discard(producer_tid)

    def doomed(self, tid: int) -> bool:
        return tid in self._doomed

    def clear(self, tid: int) -> None:
        self._doomed.discard(tid)
        for producers in (self._producers_of.pop(tid, set()),):
            for producer in producers:
                self._consumers_of[producer].discard(tid)


class Runtime:
    """Shared driver state: the machine, the history, coordination."""

    def __init__(
        self,
        spec: SequentialSpec,
        check_gray_criteria: bool = True,
        compact_every: Optional[int] = 64,
        tracer: Tracer = NULL_TRACER,
        injector: NullInjector = NULL_INJECTOR,
    ):
        self.spec = spec
        self.tracer = tracer
        self.machine = Machine(
            spec, check_gray_criteria=check_gray_criteria, tracer=tracer
        )
        self.history = History()
        #: fault-injection hooks (repro.faults); NULL_INJECTOR is disarmed
        self.injector = injector
        injector.bind(self)
        self.locks = LockTable(injector)
        self.dependencies = DependencyRegistry()
        self.tokens: Dict[str, Optional[int]] = {}
        self.active_tids: Set[int] = set()
        #: machine tid → harness job id (fault events target job ids,
        #: which are stable across retries; tids are per-spawn)
        self.tid_to_job: Dict[int, Optional[int]] = {}
        self.rule_counts: collections.Counter = collections.Counter()
        self.compact_every = compact_every
        self._commits_since_compaction = 0

    # -- machine stepping -----------------------------------------------------

    def apply(self, rule: str, *args) -> Machine:
        """Invoke machine rule ``rule`` with ``args``; commit the successor
        state and count the application.

        An armed fault injector sees every *forward* rule before it runs
        and may raise :class:`~repro.faults.plan.InjectedFault` (a
        :class:`TMAbort`), which drivers propagate like any conflict
        abort.  Rollback rules are never intercepted, so recovery from an
        injected fault cannot itself be faulted."""
        if self.injector.armed:
            self.injector.on_apply(self, rule, args)
        successor = getattr(self.machine, rule)(*args)
        self.machine = successor
        self.rule_counts[rule.upper()] += 1
        return successor

    # -- tokens (single-holder flags; end and abort release them) ----------------

    def try_token(self, name: str, tid: int) -> bool:
        holder = self.tokens.get(name)
        if holder is None or holder == tid:
            self.tokens[name] = tid
            return True
        return False

    def token_holder(self, name: str) -> Optional[int]:
        return self.tokens.get(name)

    # -- the transaction lifecycle -----------------------------------------------

    def begin(
        self, tid: int, job_id: Optional[int] = None, retries_of: Optional[int] = None
    ) -> TxRecord:
        """Open the history record of one attempt on machine thread ``tid``."""
        self.active_tids.add(tid)
        self.tid_to_job[tid] = job_id
        return self.history.begin(tid, retries_of=retries_of)

    def _view(self, tid: int) -> Tuple[LocalLog, Tuple[Op, ...]]:
        """The thread's local log, and its pulls still uncommitted."""
        local, global_log = self.machine.thread(tid).local, self.machine.global_log
        return local, tuple(
            op for op in local.pulled_ops()
            if (entry := global_log.entry_for(op)) is not None and not entry.is_committed
        )

    def commit(
        self, tid: int, record: TxRecord, pulled_uncommitted: Optional[Sequence[Op]] = None
    ) -> None:
        """CMT ``tid`` and record the view it committed (read first: CMT
        clears the local log).  A §6.5 consumer passes the uncommitted pulls
        it made, since by now its producers have committed."""
        local, dirty = self._view(tid)
        self.apply("cmt", tid)
        if pulled_uncommitted is not None:
            dirty = pulled_uncommitted
        self.history.commit(record, local.own_ops(), local.all_ops(), dirty)

    def _release(self, tid: int) -> None:
        self.locks.release_all(tid)
        for token, holder in self.tokens.items():
            if holder == tid:
                self.tokens[token] = None

    def end(self, tid: int) -> None:
        """After a commit: release the thread's locks and tokens, settle its
        consumers, MS_END (refusing an attempt that returned without CMT)."""
        self._release(tid)
        self.active_tids.discard(tid)
        self.dependencies.on_commit(tid)
        self.machine = self.machine.end_thread(tid)
        self.tid_to_job.pop(tid, None)

    def abort(
        self, tid: int, record: TxRecord, reason: str, kind: AbortKind = AbortKind.EXPLICIT
    ) -> None:
        """Doom the attempt's consumers, release what it held, roll it back
        and record the view it had reached."""
        local, dirty = self._view(tid)
        self.dependencies.on_abort(tid)
        self.dependencies.clear(tid)
        self._release(tid)
        self.rollback(tid)
        self.history.abort(record, reason, local.all_ops(), dirty, kind=kind)
        self.active_tids.discard(tid)

    def drop(self, tid: int) -> None:
        """Discard a rolled-back thread that will not retry."""
        self.machine = self.machine.drop_thread(tid)
        self.tid_to_job.pop(tid, None)

    # -- generic rollback -------------------------------------------------------

    def rollback(self, tid: int) -> None:
        """Undo a transaction completely: walk the local log right-to-left,
        UNPULLing pulled entries, UNPUSH+UNAPPing pushed entries and
        UNAPPing unpushed ones.  Right-to-left order makes every criterion
        hold (each removal leaves an allowed prefix), except UNPUSH when
        *another* transaction pushed work depending on ours — the §6.5
        driver dooms its dependents first, so by the time rollback runs the
        shared log no longer depends on our operations."""
        tracer = self.tracer
        if tracer.enabled:
            start = tracer.now()
            undone = len(self.machine.thread(tid).local)
            self._rollback(tid)
            tracer.span("rollback", CAT_RUNTIME, start, tid=tid, args={"entries": undone})
            return
        self._rollback(tid)

    def _rollback(self, tid: int) -> None:
        thread = self.machine.thread(tid)
        while len(thread.local) > 0:
            entry = thread.local[-1]
            if isinstance(entry.flag, Pulled):
                self.apply("unpull", tid, entry.op)
            elif isinstance(entry.flag, Pushed):
                self.apply("unpush", tid, entry.op)
                self.apply("unapp", tid)
            else:
                self.apply("unapp", tid)
            thread = self.machine.thread(tid)

    # -- relevance-based pulling --------------------------------------------------

    def relevant_committed(
        self, tid: int, keys: frozenset
    ) -> List[Op]:
        """Committed global-log mutator operations whose footprint
        intersects ``keys`` and which the thread has not pulled (and does
        not own), in global-log order — the set a driver must PULL for its
        local view to return correct values for a call with footprint
        ``keys``."""
        thread = self.machine.thread(tid)
        have = thread.local.ids()
        wanted: List[Op] = []
        for entry in self.machine.global_log:
            if not entry.is_committed:
                continue
            op = entry.op
            if op.op_id in have:
                continue
            if not self.spec.is_mutator(op.method):
                continue
            if self.spec.op_footprint(op) & keys:
                wanted.append(op)
        return wanted

    def pull_relevant(self, tid: int, keys: frozenset) -> List[Op]:
        """PULL everything :meth:`relevant_committed` returns; on a
        criterion failure raise :class:`TMAbort` (stale view)."""
        pulled = []
        for op in self.relevant_committed(tid, keys):
            try:
                self.apply("pull", tid, op)
            except CriterionViolation as exc:
                raise TMAbort(f"pull conflict: {exc}", AbortKind.CONFLICT)
            pulled.append(op)
        return pulled

    # -- quiescence and log compaction ----------------------------------------------

    def leaks(self) -> List[str]:
        """One message per thing a quiescent runtime must not hold (empty
        means quiescent): the conformance gate's check 5, and what
        :meth:`rollover` waits for."""
        found = [
            f"uncommitted global-log entry: {entry.op}"
            for entry in self.machine.global_log if not entry.is_committed
        ] + [
            f"thread {thread.tid} stranded {len(thread.local)} local-log entries"
            for thread in self.machine.threads if len(thread.local) != 0
        ]
        tokens = {name: tid for name, tid in self.tokens.items() if tid is not None}
        for what, leaked in (
            ("leaked abstract locks", self.locks.all_held()),
            ("leaked tokens", tokens),
            ("undrained doomed consumers", sorted(self.dependencies.doomed_tids())),
            ("active tids after run", sorted(self.active_tids)),
        ):
            if leaked:
                found.append(f"{what}: {leaked}")
        return found

    def rebase(self, state: Any) -> None:
        """Restart from spec state ``state`` with an empty global log."""
        self.spec = RebasedStateSpec(self.spec, state)
        self.machine = Machine(
            self.spec, threads=self.machine.threads, ids=self.machine.ids,
            check_gray_criteria=self.machine.check_gray_criteria, tracer=self.tracer,
        )

    def rollover(self) -> bool:
        """When quiescent (an active tid, the usual leak, is tested first),
        :meth:`rebase` onto the replayed committed log, keeping ``allowed``
        checks O(transaction), not O(run).  :class:`StateSpec` only."""
        if self.active_tids or self.leaks() or not isinstance(self.spec, StateSpec):
            return False
        state = self.spec.replay(self.machine.global_log.all_ops())
        if state is None:  # pragma: no cover - would be a machine bug
            raise MachineError("committed global log is not allowed")
        self.rebase(state)
        return True

    def maybe_compact(self) -> bool:
        """:meth:`rollover` once ``compact_every`` commits have accumulated."""
        if self.compact_every is None:
            return False
        self._commits_since_compaction += 1
        if self._commits_since_compaction < self.compact_every:
            return False
        compacted = len(self.machine.global_log)
        if not self.rollover():
            return False
        self._commits_since_compaction = 0
        if self.tracer.enabled:
            self.tracer.instant("compact", CAT_RUNTIME, args={"entries": compacted})
        return True


class StepStatus(Enum):
    RUNNING = "running"
    COMMITTED = "committed"
    ABORTED = "aborted"  # permanently (retries exhausted)


@dataclass
class StepperStats:
    attempts: int = 0
    aborts: int = 0
    waits: int = 0
    steps: int = 0


class TMAlgorithm(ABC):
    """A TM system as a PUSH/PULL discipline.

    Subclasses implement :meth:`attempt`: a generator that drives one
    attempt of ``program`` on machine thread ``tid`` to CMT, yielding at
    every point where other transactions may interleave, and raising
    :class:`TMAbort` on conflicts.  The surrounding :class:`TxStepper`
    handles rollback, history recording and retries.
    """

    name: str = "abstract"
    #: whether the discipline stays inside the opaque fragment (§6.1)
    opaque: bool = True
    #: whether every committed effect is coverable by an atomic execution
    #: of the *submitted* programs (the Theorem 5.17 simulation target).
    #: Elastic transactions honestly set this ``False`` — their contract
    #: is piece-level serializability, and another transaction may
    #: serialize between two pieces of one submitted program — so the
    #: differential oracle (:mod:`repro.fuzz.oracle`) knows not to hold
    #: them to whole-program atomicity.  A strategy that rewrites or
    #: partially commits programs while leaving this ``True`` is lying
    #: about its contract, which is exactly what the oracle catches.
    atomic_reference: bool = True

    @abstractmethod
    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        """Drive one attempt; generator yields are preemption points."""

    def prepare_program(self, program: Code) -> Code:
        """Hook: transform the submitted program before the machine thread
        is spawned.  The default is the identity; elastic transactions use
        it to declare their cut points (``skip +`` choices), which changes
        the transaction's *meaning* exactly the way elasticity does."""
        return program

    # -- shared helpers -----------------------------------------------------------

    @staticmethod
    def resolve_steps(program: Code) -> List[Call]:
        """Flatten a *straight-line* transaction into its calls.  Workload
        programs are straight-line; algorithms that support nondeterminism
        resolve ``step`` choices themselves."""
        body = program.body if isinstance(program, Tx) else program
        calls: List[Call] = []
        code = body
        while True:
            choices = lang_step(code)
            if not choices:
                break
            if len(choices) != 1:
                raise MachineError(
                    "resolve_steps only handles straight-line programs; "
                    f"{code!r} has {len(choices)} next steps"
                )
            ((call_node, continuation),) = choices
            calls.append(call_node)
            code = continuation
        return calls

    def app_call(self, rt: Runtime, tid: int, index: int) -> Op:
        """APP the ``index``-th remaining step choice of ``tid`` (0 =
        deterministic next).  Returns the new operation.  Criterion
        failures become :class:`TMAbort`."""
        choices = sorted_choices(rt.machine.thread(tid).code)
        if not choices:
            raise MachineError(f"thread {tid} has no next step")
        choice = choices[min(index, len(choices) - 1)]
        try:
            rt.apply("app", tid, choice)
        except CriterionViolation as exc:
            raise TMAbort(f"app conflict: {exc}", AbortKind.CONFLICT)
        return rt.machine.thread(tid).local[-1].op

    def push_op(self, rt: Runtime, tid: int, op: Op) -> None:
        try:
            rt.apply("push", tid, op)
        except CriterionViolation as exc:
            raise TMAbort(f"push conflict: {exc}", AbortKind.CONFLICT)

    def push_all_unpushed(self, rt: Runtime, tid: int) -> None:
        """PUSH the thread's ``npshd`` operations in local-log order
        (criterion (i) trivially satisfied — §4's observation that all
        existing implementations push in APP order)."""
        for op in rt.machine.thread(tid).local.not_pushed_ops():
            self.push_op(rt, tid, op)

    def validate_then_push_all(self, rt: Runtime, tid: int) -> None:
        """§6.2's commit sequence: *check* the PUSH conditions on all
        effects first (:meth:`~repro.core.machine.Machine.first_unpushable`,
        which applies no rule), then publish.  A validation failure raises
        :class:`TMAbort` with nothing published, so the subsequent rollback
        is pure UNAPPs — TL2 "needn't UNPUSH".  On success the pushes run
        on the runtime within the same quantum, so they cannot fail."""
        refused = rt.machine.first_unpushable(tid)
        if refused is not None:
            raise TMAbort(f"commit validation failed: {refused[1]}", AbortKind.VALIDATION)
        self.push_all_unpushed(rt, tid)

    def commit(
        self, rt: Runtime, tid: int, record: TxRecord, pulled_uncommitted=None
    ) -> None:
        """:meth:`Runtime.commit`, with a refused CMT as a clean abort."""
        try:
            rt.commit(tid, record, pulled_uncommitted)
        except CriterionViolation as exc:
            raise TMAbort(f"commit refused: {exc}", AbortKind.VALIDATION)


#: ceiling, in quanta, of the built-in exponential backoff that a stepper
#: without a recovery policy sits out after an abort
BACKOFF_CAP = 64


class TxStepper:
    """One logical transaction: attempts, rollbacks, retries, recording."""

    def __init__(
        self,
        algorithm: TMAlgorithm,
        runtime: Runtime,
        program: Code,
        max_retries: int = 50,
        job_id: Optional[int] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ):
        self.algorithm = algorithm
        self.runtime = runtime
        self.program = program
        self.max_retries = max_retries
        self.job_id = job_id
        #: optional repro.faults recovery policy; replaces the built-in
        #: backoff formula and may escalate to the serialised fallback
        self.recovery = recovery
        self.status = StepStatus.RUNNING
        self.stats = StepperStats()
        self.record: Optional[TxRecord] = None
        self._generator: Optional[Iterator[None]] = None
        self._tid: Optional[int] = None
        self._previous_record_id: Optional[int] = None
        self._backoff_remaining = 0
        self._escalated = False

    @property
    def tid(self) -> Optional[int]:
        return self._tid

    def _begin_attempt(self) -> None:
        rt = self.runtime
        if self._tid is None:
            rt.machine, self._tid = rt.machine.spawn(
                self.algorithm.prepare_program(self.program)
            )
        self.record = rt.begin(self._tid, self.job_id, self._previous_record_id)
        self._previous_record_id = self.record.tx_id
        self.stats.attempts += 1
        if rt.tracer.enabled:
            rt.tracer.instant(
                "tx.begin",
                CAT_TX,
                tid=self._tid,
                args={
                    "algorithm": self.algorithm.name,
                    "job": self.job_id,
                    "attempt": self.stats.attempts,
                },
            )
        self._generator = self.algorithm.attempt(rt, self._tid, self.record, self.program)

    def step(self) -> StepStatus:
        """Advance one scheduling quantum."""
        if self.status is not StepStatus.RUNNING:
            return self.status
        rt = self.runtime
        if self._backoff_remaining > 0:
            # Contention management: a freshly aborted transaction sits out
            # an exponentially growing number of quanta before retrying, so
            # symmetric conflicts cannot livelock (the TinySTM/TL2
            # contention-manager role).
            self._backoff_remaining -= 1
            self.stats.waits += 1
            self.stats.steps += 1
            if rt.tracer.enabled:
                rt.tracer.count("sched.backoff_wait")
            return self.status
        if self._generator is None:
            if self._escalated and self._tid is not None:
                # Escalation: serialise this retry under the recovery
                # token (the lock-elision fallback shape) so repeat
                # offenders stop destroying each other.
                if not rt.try_token(RECOVERY_TOKEN, self._tid):
                    self.stats.waits += 1
                    self.stats.steps += 1
                    if rt.tracer.enabled:
                        rt.tracer.count("recovery.fallback_wait")
                    return self.status
            self._begin_attempt()
        try:
            self.stats.steps += 1
            if rt.injector.armed:
                stall = rt.injector.on_quantum(rt, self._tid, self.job_id)
                if stall > 0:
                    # Delayed publication / slow thread: sit out the stall
                    # with locks and tokens held (maximal interference).
                    self._backoff_remaining = max(self._backoff_remaining, stall)
                    self.stats.waits += 1
                    return self.status
            next(self._generator)
            return self.status
        except StopIteration:
            # Attempt generator finished: it committed through
            # TMAlgorithm.commit, or MS_END refuses the thread in end().
            if rt.tracer.enabled:
                rt.tracer.instant(
                    "tx.commit",
                    CAT_TX,
                    tid=self._tid,
                    args={
                        "algorithm": self.algorithm.name,
                        "job": self.job_id,
                        "attempts": self.stats.attempts,
                    },
                )
            rt.end(self._tid)
            self._tid = None
            self._generator = None
            self.status = StepStatus.COMMITTED
            rt.maybe_compact()
            return self.status
        except TMAbort as abort:
            self.stats.aborts += 1
            rt.abort(self._tid, self.record, abort.reason, abort.kind)
            self._generator = None
            if self.stats.aborts > self.max_retries:
                self.status = StepStatus.ABORTED
                if self.recovery is not None:
                    self.recovery.on_giveup(self.job_id)
                    if rt.tracer.enabled:
                        rt.tracer.count("recovery.giveup")
            elif self.recovery is not None:
                quanta, escalate = self.recovery.on_abort(
                    self.job_id, self.stats.aborts, abort.kind
                )
                self._backoff_remaining = quanta
                if escalate and not self._escalated:
                    self._escalated = True
                    if rt.tracer.enabled:
                        rt.tracer.count("recovery.escalation")
                if rt.tracer.enabled:
                    rt.tracer.count("recovery.retry")
                    rt.tracer.count("recovery.backoff_quanta", quanta)
            else:
                self._backoff_remaining = min(
                    BACKOFF_CAP, 2 ** min(self.stats.aborts, 16)
                ) * (1 + (self.job_id or 0) % 3) // 2
            if rt.tracer.enabled:
                rt.tracer.instant(
                    "tx.abort",
                    CAT_TX,
                    tid=self.record.thread_tid,
                    args={
                        "algorithm": self.algorithm.name,
                        "job": self.job_id,
                        "reason": abort.reason,
                        "kind": abort.kind.value,
                        "will_retry": self.status is StepStatus.RUNNING,
                        "backoff_quanta": self._backoff_remaining,
                    },
                )
            return self.status
