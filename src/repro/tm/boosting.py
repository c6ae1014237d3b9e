"""Transactional boosting (Herlihy & Koskinen) — §6.3 and Figure 2.

Boosting runs transactions against a linearizable base object, guarded by
*abstract locks* keyed on operation footprints so that only commutative
operations proceed in parallel.  Figure 2's decomposition, which this
driver reproduces step for step:

* begin — the local view *is* the shared view ("implements a PULL
  implicitly"): we PULL the relevant committed operations under the lock;
* each operation — acquire the abstract lock (e.g. the key of a hashtable
  ``put``), then APP and immediately PUSH: the operation takes effect in
  the shared view at its linearization point.  PUSH criterion (ii) holds
  because locking guarantees every concurrent uncommitted operation
  commutes;
* abort — UNPUSH then UNAPP in reverse order ("performing the appropriate
  inverse operation", e.g. re-``put`` of the old value in Fig. 2); the
  generic rollback realises exactly this;
* commit — CMT, then release the abstract locks.

Lock acquisition is try-lock with a bounded wait: after ``max_waits``
failed polls the transaction aborts and retries (the boosting paper's
timeout-based deadlock recovery).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import AbortKind, TMAbort
from repro.core.history import TxRecord
from repro.core.language import Code
from repro.tm.base import Runtime, TMAlgorithm


class BoostingTM(TMAlgorithm):
    """Pessimistic abstract-lock TM over a linearizable base object."""

    name = "boosting"
    opaque = True

    def __init__(self, max_waits: int = 32, shared_read_locks: bool = True):
        self.max_waits = max_waits
        #: observers take *shared* abstract locks (as boosted structures
        #: do for ``contains``/``get``), letting readers of the same key
        #: proceed in parallel; set ``False`` for all-exclusive locking.
        self.shared_read_locks = shared_read_locks

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            shared = self.shared_read_locks and not rt.spec.is_mutator(
                call_node.method
            )
            waits = 0
            while not rt.locks.try_acquire(tid, keys, shared=shared):
                waits += 1
                if waits > self.max_waits:
                    # Deadlock-avoidance timeout (boosting aborts and
                    # retries; the lock holder makes progress).
                    raise TMAbort("abstract-lock timeout", AbortKind.STARVATION)
                yield
            rt.pull_relevant(tid, keys)
            op = self.app_call(rt, tid, 0)
            self.push_op(rt, tid, op)  # linearization point
            yield
        # The runtime releases the abstract locks at commit and at abort.
        self.commit(rt, tid, record)
