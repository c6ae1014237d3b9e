"""The known-bug zoo: deliberately broken TM strategies.

Each class here takes a correct driver from :mod:`repro.tm` and plants
one realistic implementation bug in it — the kinds of mistake real STM
runtimes have shipped (swallowed crash paths, skipped commit validation,
stale snapshots, incomplete rollback, dirty reads behind an "opaque"
facade).  None of them is registered in
:data:`~repro.tm.ALL_ALGORITHMS`; they exist so the differential fuzzer
(:mod:`repro.fuzz`) has ground truth to measure its oracle against: a
fuzzing harness that cannot catch every strategy in
:data:`BROKEN_ALGORITHMS` within a fixed budget is a harness that proves
nothing (the mutation-testing / oracle-sensitivity gate, see
``docs/FUZZING.md``).

The machine itself is never weakened — every bug lives in the *driver*
layer, exactly where the paper says correctness does not come from.  What
varies is how the bug surfaces:

==================  ========================================================
``broken-crash``    swallows an injected fault with a dirty local log;
                    the machine's MS_END check rejects the teardown
                    (**exception**)
``broken-push-     skips commit-time validation and publishes whatever it
nocheck``           can, silently dropping refused effects; CMT criterion
                    (ii) then rejects the half-published commit
                    (**exception**)
``broken-stale-    reads from a snapshot taken at first access and
pull``              "commits what validates" by dropping the conflicting
                    tail — a partial commit the recorded history cannot
                    distinguish from a correct one; only the differential
                    atomic-cover check sees the lost effects
                    (**divergence**)
``broken-lost-     abandons an abort mid-rollback, leaving a local-log
unapp``             entry stranded (**exception** / leaked **state**)
``broken-dirty-    claims opacity while PULLing other transactions'
read``              *uncommitted* effects with no dependency registration
                    (**opacity** breach, or an **exception** when the
                    un-tracked producer rolls back underneath it)
==================  ========================================================
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import AbortKind, CriterionViolation, TMAbort
from repro.core.history import TxRecord
from repro.core.language import Code
from repro.faults.plan import InjectedFault
from repro.tm.base import Runtime
from repro.tm.elastic import elastic_program
from repro.tm.encounter import EncounterTM
from repro.tm.tl2 import TL2TM


class BrokenCrashTM(TL2TM):
    """Swallows an injected fault once work is buffered and pretends the
    attempt finished — leaving the thread's local log dirty, which the
    machine itself then rejects at ``end_thread`` (MS_END).

    Promoted out of ``tests/test_faults.py``: the chaos shrinker's
    reference fixture and the zoo's fault-dependent member (it only
    misbehaves when a fault plan actually fires inside an attempt).
    """

    name = "broken-crash"

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        inner = super().attempt(rt, tid, record, program)
        while True:
            try:
                next(inner)
            except StopIteration:
                return
            except InjectedFault:
                if len(rt.machine.thread(tid).local) > 0:
                    return  # the bug: "commit" with a dirty local log
                raise
            yield


class BrokenPushNoCheckTM(TL2TM):
    """Publishes without the §6.2 validate-then-push commit sequence.

    A correct TL2 driver dry-runs every PUSH before publishing anything;
    this one pushes optimistically and *swallows* any refusal, silently
    dropping the refused effect from publication — then asks the machine
    to commit anyway.  CMT criterion (ii) (``L ⊆ G``: every own operation
    pushed) rejects the half-published local log, and because the driver
    bypasses the wrapped :meth:`~repro.tm.base.TMAlgorithm.commit` helper
    the :class:`~repro.core.errors.CriterionViolation` escapes as a raw
    exception instead of a clean abort.  Conflict-dependent: with no
    contention every push succeeds and the strategy looks healthy.
    """

    name = "broken-push-nocheck"

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        accessed: frozenset = frozenset()
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            accessed = accessed | keys
            rt.pull_relevant(tid, accessed)
            self.app_call(rt, tid, 0)
            yield
        for op in rt.machine.thread(tid).local.not_pushed_ops():
            try:
                rt.apply("push", tid, op)
            except CriterionViolation:
                pass  # the bug: drop the refused effect and carry on
        rt.commit(tid, record)  # raw: no validation, no clean-abort wrapping


class BrokenStalePullTM(TL2TM):
    """Reads a stale snapshot and commits whatever still validates.

    Two bugs compound.  First, the driver PULLs relevant committed
    operations only at the *first* access instead of revalidating the
    whole read set at every access (TL2's global version clock), so later
    reads are computed against a stale view.  Second, when commit-time
    validation then fails, instead of aborting it UNAPPs/UNPULLs the
    conflicting tail of the local log and commits the surviving prefix —
    a *partial commit* of the submitted program.

    The partial commit is self-consistent: the recorded history contains
    exactly the committed prefix, the global log matches it, and the
    serializability/opacity/state gates pass on the seed corpus (the
    TMS2 decision does reject some runs' stale *aborted* views —
    ``tests/test_broken_zoo.py`` pins one — but never sees the lost
    effects themselves).  Only the differential oracle catches the
    partial commit, by demanding the committed effects be coverable by
    an atomic execution of the *original* programs (the strategy keeps
    ``atomic_reference = True`` — that claim is the lie).  The program is
    prepared in the elastic shape (``skip`` choice at every boundary) so
    CMT criterion (i) admits the truncated commit; unlike
    :class:`~repro.tm.elastic.ElasticTM`, which sets
    ``atomic_reference = False`` and commits *every* operation across its
    pieces, this driver silently discards the dropped tail.
    """

    name = "broken-stale-pull"

    def prepare_program(self, program: Code) -> Code:
        return elastic_program(self.resolve_steps(program))

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        pulled_once = False
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            if not pulled_once:
                rt.pull_relevant(tid, keys)
                pulled_once = True  # the bug: never revalidate again
            self.app_call(rt, tid, 0)
            yield
        while True:
            try:
                self.validate_then_push_all(rt, tid)
                break
            except TMAbort:
                thread = rt.machine.thread(tid)
                if len(thread.local.own_ops()) <= 1:
                    # Nothing left worth committing: give up cleanly.
                    raise TMAbort(
                        "stale-pull: no committable prefix",
                        AbortKind.VALIDATION,
                    )
                # The bug: drop the conflicting tail and try again.
                last = thread.local[-1]
                if last.is_pulled:
                    rt.apply("unpull", tid, last.op)
                else:
                    rt.apply("unapp", tid)
        self.commit(rt, tid, record)


class BrokenLostUnappTM(EncounterTM):
    """Abandons an abort halfway through rollback.

    On any conflict abort the driver starts undoing its local log by hand
    but stops with one entry still in place, then *returns* as if the
    attempt had finished cleanly.  The stepper treats the finished
    generator as a commit and calls ``end_thread``, which the machine
    rejects (MS_END: the local log is not empty) — and if the stranded
    entry was already pushed, the global log additionally keeps an
    uncommitted orphan.  Purely conflict-driven: encounter-time
    publication makes organic aborts frequent under contention, so no
    fault plan is needed to expose it.
    """

    name = "broken-lost-unapp"

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        inner = super().attempt(rt, tid, record, program)
        while True:
            try:
                next(inner)
            except StopIteration:
                return
            except TMAbort:
                thread = rt.machine.thread(tid)
                if len(thread.local) == 0:
                    raise
                # The bug: roll back all but the oldest entry, then
                # pretend the attempt finished.
                while len(thread.local) > 1:
                    entry = thread.local[-1]
                    if entry.is_pulled:
                        rt.apply("unpull", tid, entry.op)
                    elif entry.is_pushed:
                        rt.apply("unpush", tid, entry.op)
                        rt.apply("unapp", tid)
                    else:
                        rt.apply("unapp", tid)
                    thread = rt.machine.thread(tid)
                return
            yield


class BrokenDirtyReadTM(EncounterTM):
    """Claims opacity while reading other transactions' uncommitted work.

    At every access, besides the legitimate committed PULLs, this driver
    also PULLs any *uncommitted* published mutator of another thread
    whose footprint intersects the access — without registering the §6.5
    commit dependency that makes such reads survivable.  Encounter-time
    publication (the inherited discipline) keeps uncommitted effects
    visible across quanta, so the dirty window is wide.

    Two ways to die: an attempt that aborts after observing the dirty
    value leaves a non-opaque aborted view (CMT criterion (iii) refuses
    to commit with an uncommitted pull outstanding, so the abort path is
    forced) — because the class *claims* ``opaque = True``, the §6.1
    no-uncommitted-PULL check flags the pull itself (**opacity**) and
    the TMS2 decision flags the view no serialization justifies
    (**opacity-tms2**, or **opacity-witness** past seven commits); or the
    un-tracked producer aborts first and its rollback finds a consumer
    it never knew about, surfacing as a raw machine-level exception.
    """

    name = "broken-dirty-read"
    opaque = True  # the lie: dependent-style dirty reads are not opaque

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            rt.pull_relevant(tid, keys)
            self._pull_dirty(rt, tid, keys)  # the bug
            op = self.app_call(rt, tid, 0)
            self.push_op(rt, tid, op)
            yield
        self.commit(rt, tid, record)

    def _pull_dirty(self, rt: Runtime, tid: int, keys: frozenset) -> None:
        """PULL other threads' uncommitted published mutators touching
        ``keys`` — with no dependency registration and no cycle check."""
        thread = rt.machine.thread(tid)
        have = thread.local.ids()
        for entry in rt.machine.global_log:
            if entry.is_committed:
                continue
            op = entry.op
            if op.op_id in have or not rt.spec.is_mutator(op.method):
                continue
            if not (rt.spec.op_footprint(op) & keys):
                continue
            try:
                rt.apply("pull", tid, op)
            except CriterionViolation:
                continue  # shrug: take whatever dirty state fits


#: Name → class, parallel to :data:`repro.tm.ALL_ALGORITHMS` but never
#: merged into it: these exist only for the fuzzer's sensitivity gate.
BROKEN_ALGORITHMS = {
    cls.name: cls
    for cls in (
        BrokenCrashTM,
        BrokenPushNoCheckTM,
        BrokenStalePullTM,
        BrokenLostUnappTM,
        BrokenDirtyReadTM,
    )
}

__all__ = [
    "BrokenCrashTM",
    "BrokenPushNoCheckTM",
    "BrokenStalePullTM",
    "BrokenLostUnappTM",
    "BrokenDirtyReadTM",
    "BROKEN_ALGORITHMS",
]
