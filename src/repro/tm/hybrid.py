"""Boosting + HTM in one transaction — §7's showcase.

A transaction mixes operations on *boosted* components (expensive to
replay: skip lists, hash tables) with operations on *HTM-managed*
components (raw words).  §7's point is that PUSH/PULL licenses behaviours
no conventional model allows:

* effects are announced in a different order than applied (boosted ops are
  PUSHed at their linearization point, HTM ops much later, at the commit
  attempt — so the global log interleaves them out of local order);
* on an HTM conflict the transaction UNPUSHes *only* the HTM operations
  (out of chronological push order) while the boosted effects stay in the
  shared view, partially rewinds with UNAPP, re-executes the conflicted
  tail and re-publishes.

This driver generalises Figure 7.  The spec must be a
:class:`~repro.specs.product.ProductSpec`; ``htm_components`` names the
components under hardware control, everything else is boosted.

Per-operation discipline:

* boosted call — abstract lock on its footprint, PULL relevant committed,
  APP, PUSH immediately (Fig. 2 discipline);
* HTM call — simulated eager conflict detection against other in-flight
  hybrid transactions' HTM sets, PULL relevant committed, APP only.

Commit: PUSH the buffered HTM operations and CMT in one quantum.  An HTM
conflict (either detected eagerly at an access, or a PUSH criterion
failure at commit) triggers the *partial* recovery of §7: UNPUSH any
already-pushed HTM operations, UNAPP the local-log suffix up to and
including the earliest invalidated HTM operation (boosted operations
before it keep their pushed shared-view entries if the suffix does not
reach them), and resume execution from the restored code.  Only when the
invalidated suffix would require unwinding a boosted operation does the
transaction fall back to a full abort.
"""

from __future__ import annotations

import collections
from typing import Dict, Iterator, Set

from repro.core.errors import AbortKind, TMAbort
from repro.core.history import TxRecord
from repro.core.language import Code, sorted_choices
from repro.core.logs import Pushed
from repro.specs.product import split_method
from repro.tm.base import Runtime, TMAlgorithm


class HybridTM(TMAlgorithm):
    """Mixed boosted/HTM transactions with selective HTM rewind."""

    name = "hybrid"
    opaque = True

    def __init__(
        self,
        htm_components: frozenset,
        max_waits: int = 32,
        max_htm_retries: int = 8,
    ):
        self.htm_components = frozenset(htm_components)
        self.max_waits = max_waits
        self.max_htm_retries = max_htm_retries
        self._htm_sets: Dict[int, Set] = collections.defaultdict(set)

    def _is_htm_call(self, method: str) -> bool:
        component, _ = split_method(method)
        return component in self.htm_components

    def _htm_conflict(self, tid: int, keys: frozenset) -> bool:
        return any(
            other != tid and (held & keys)
            for other, held in self._htm_sets.items()
        )

    # -- §7's selective rewind ---------------------------------------------------

    def _htm_rewind(self, rt: Runtime, tid: int) -> bool:
        """UNPUSH all pushed HTM operations, then UNAPP the local suffix up
        to (and including) the earliest HTM operation.  Returns ``False``
        when the suffix would unwind a boosted operation that precedes no
        HTM operation — i.e. partial recovery is impossible and the caller
        must fully abort."""
        thread = rt.machine.thread(tid)
        # 1. Retract published HTM effects (out-of-order UNPUSH is fine:
        #    the UNPUSH criteria only require the rest of the log to stand).
        for entry in reversed(thread.local.entries):
            if isinstance(entry.flag, Pushed) and self._is_htm_call(entry.op.method):
                rt.apply("unpush", tid, entry.op)
        thread = rt.machine.thread(tid)
        # 2. Find the earliest HTM entry; everything from there rightwards
        #    must be re-executed.  If that range contains a *pushed*
        #    (boosted) operation we refuse: its shared-view effect must
        #    survive, but UNAPP below would also have to pop it.
        first_htm = None
        for index, entry in enumerate(thread.local.entries):
            if entry.is_own and self._is_htm_call(entry.op.method):
                first_htm = index
                break
        if first_htm is None:
            return True  # nothing to rewind
        suffix = thread.local.entries[first_htm:]
        if any(isinstance(e.flag, Pushed) for e in suffix):
            return False
        for _ in range(len(suffix)):
            rt.apply("unapp", tid)
        self._htm_sets[tid].clear()
        return True

    # -- the attempt -----------------------------------------------------------------

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        htm_retries = 0
        try:
            while True:  # re-entered after each partial HTM rewind
                # Execute the remaining code of the machine thread.
                while rt.machine.app_choices(tid):
                    call_node = self._next_call(rt, tid)
                    keys = rt.spec.footprint(call_node.method, call_node.args)
                    if self._is_htm_call(call_node.method):
                        if self._htm_conflict(tid, keys):
                            htm_retries += 1
                            if htm_retries > self.max_htm_retries or not self._htm_rewind(rt, tid):
                                raise TMAbort("htm conflict (full abort)", AbortKind.CONFLICT)
                            yield
                            continue
                        self._htm_sets[tid] |= keys
                        rt.pull_relevant(tid, keys)
                        self.app_call(rt, tid, 0)
                    else:
                        waits = 0
                        while not rt.locks.try_acquire(tid, keys):
                            waits += 1
                            if waits > self.max_waits:
                                raise TMAbort("abstract-lock timeout", AbortKind.STARVATION)
                            yield
                        rt.pull_relevant(tid, keys)
                        op = self.app_call(rt, tid, 0)
                        self.push_op(rt, tid, op)
                    yield
                # Commit attempt: publish HTM ops + CMT, uninterleaved.
                try:
                    self.push_all_unpushed(rt, tid)
                except TMAbort:
                    htm_retries += 1
                    if htm_retries > self.max_htm_retries or not self._htm_rewind(rt, tid):
                        raise TMAbort("htm publication conflict (full abort)", AbortKind.CONFLICT)
                    yield
                    continue
                self.commit(rt, tid, record)  # the runtime releases the locks
                return
        finally:
            self._htm_sets.pop(tid, None)

    @staticmethod
    def _next_call(rt: Runtime, tid: int):
        return sorted_choices(rt.machine.thread(tid).code)[0][0]
