"""Early release (Herlihy et al., DSTM [14]) — §6.5's first mechanism.

*"In early release, an executing transaction T communicates with T' to
determine whether the transactions conflict.  This is modeled as T'
performing a PUSH(op) and T checking whether it is able to PULL(op)."*

The dual (and historically the headline feature of DSTM's early release)
is a reader *dropping protection* of a location it no longer needs, so
that writers stop conflicting with it.  In PUSH/PULL terms this driver
renders both directions on top of the encounter-time discipline:

* operations are published at APP time (visible reads — T' "performing a
  PUSH(op)", which is exactly what lets others probe conflicts early);
* when the remaining program can no longer touch a published *read*'s
  footprint, the read is **UNPUSHed** — released — so a conflicting
  writer's PUSH criterion (ii) no longer sees it.  The released read
  becomes ``npshd`` again and is re-published at commit (in local order
  among the released ops), where criterion (iii) re-validates it against
  whatever happened in between: release trades conflict-blocking for
  late re-validation risk, the documented early-release bargain;
* UNPUSH here serves a *non-abort* purpose — the §7 observation that the
  model's backward rules are not only for rollback.
"""

from __future__ import annotations

from typing import Iterator, Set

from repro.core.errors import CriterionViolation, TMAbort
from repro.core.history import TxRecord
from repro.core.language import Code
from repro.tm.base import Runtime, TMAlgorithm


class EarlyReleaseTM(TMAlgorithm):
    """Encounter-time TM with early release of no-longer-needed reads."""

    name = "earlyrelease"
    #: Early release is the classic opacity counterexample: during the
    #: release window a writer may invalidate a read this transaction
    #: already observed, so an *aborted* attempt can have seen a view no
    #: serial execution justifies (commit-time re-validation only protects
    #: histories that commit).  The fault-injection nemesis finds concrete
    #: witnesses on fault-free schedules — see tests/test_faults.py.
    opaque = False

    def __init__(self, release_enabled: bool = True, adaptive: bool = True):
        self.release_enabled = release_enabled
        #: adaptive mode stops releasing for a transaction once a retry
        #: was caused by release-window invalidation — releasing trades
        #: the reader's protection for the writer's progress, which under
        #: heavy contention turns into reader starvation (the documented
        #: DSTM failure mode); real deployments release selectively.
        self.adaptive = adaptive
        self._aborted_once: set = set()
        #: released-read events observed (exposed for benchmarks)
        self.releases = 0

    def _future_footprint(self, rt: Runtime, calls, index) -> frozenset:
        future: Set = set()
        for call_node in calls[index:]:
            future |= rt.spec.footprint(call_node.method, call_node.args)
        return frozenset(future)

    def _release_stale_reads(
        self, rt: Runtime, tid: int, future_keys: frozenset
    ) -> None:
        """UNPUSH published observer operations whose footprint the rest of
        the transaction cannot touch."""
        thread = rt.machine.thread(tid)
        for entry in thread.local:
            if not entry.is_pushed:
                continue
            op = entry.op
            if rt.spec.is_mutator(op.method):
                continue  # only reads are releasable
            if rt.spec.op_footprint(op) & future_keys:
                continue  # still needed
            try:
                rt.apply("unpush", tid, op)
                self.releases += 1
            except CriterionViolation:
                pass  # someone depends on it; keep it published

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        calls = self.resolve_steps(program)
        releasing = self.release_enabled and not (
            self.adaptive and tid in self._aborted_once
        )
        try:
            for index, call_node in enumerate(calls):
                keys = rt.spec.footprint(call_node.method, call_node.args)
                rt.pull_relevant(tid, keys)
                op = self.app_call(rt, tid, 0)
                self.push_op(rt, tid, op)
                if releasing:
                    future = self._future_footprint(rt, calls, index + 1)
                    self._release_stale_reads(rt, tid, future)
                yield
            # Commit: re-publish released reads (still in local order among
            # themselves), validated against the current global log.
            self.validate_then_push_all(rt, tid)
        except TMAbort:
            self._aborted_once.add(tid)
            raise
        self.commit(rt, tid, record)
