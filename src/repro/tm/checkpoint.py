"""Checkpointed transactions (§6.2, second paragraph).

*"Transactions that use checkpoints [19] and (closed) nested transactions
[27] do not share their effects until commit time.  They are similar to
the above optimistic models, except that placemarkers are set so that, if
an abort is detected, UNAPP only needs to be performed for some
operations."*

This driver extends the TL2 discipline with **partial abort**: a
checkpoint is taken every ``checkpoint_every`` operations (the local-log
length is the placemarker — exactly what the model's UNAPP-to-saved-code
mechanism supports, since every ``npshd`` entry remembers its pre-code).

On a conflict the driver classifies the failure:

* a stale *suffix* — the conflicting access lies at or after the last
  checkpoint — rewinds only to that checkpoint (UNAPP × suffix length)
  and re-executes from there against a refreshed view;
* anything older forces rewinding further back, checkpoint by checkpoint,
  until the surviving prefix revalidates (in the worst case this is a
  full abort, i.e. plain TL2 behaviour).

Because nothing is pushed before commit, rewinding is always pure UNAPPs
— the paper's point that checkpoint/nested-transaction rollback is the
``⟲self`` relation in action.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.core.errors import TMAbort
from repro.core.history import TxRecord
from repro.core.language import Code
from repro.tm.base import Runtime, TMAlgorithm


class CheckpointTM(TMAlgorithm):
    """TL2 with placemarkers and partial (checkpoint) rollback."""

    name = "checkpoint"
    #: Partial rollback trades opacity for cheap recovery: a doomed
    #: attempt may pull a freshly committed write *after* reading state
    #: that write contradicts, and the rewind machinery re-validates only
    #: the surviving prefix — so an aborted attempt's full observed view
    #: can be inconsistent even though every committed history stays
    #: serializable.  The chaos nemesis finds fault-free witnesses (see
    #: tests/test_faults.py); eager whole-readset revalidation on every
    #: refresh would restore opacity at plain-TL2 cost.
    opaque = False

    def __init__(self, checkpoint_every: int = 2, max_partial_rewinds: int = 32):
        self.checkpoint_every = checkpoint_every
        self.max_partial_rewinds = max_partial_rewinds
        #: partial-rewind events observed (exposed for benchmarks)
        self.partial_rewinds = 0
        self.full_aborts = 0

    def _rewind_to(self, rt: Runtime, tid: int, marker: int) -> None:
        """UNAPP the local-log suffix beyond position ``marker``."""
        thread = rt.machine.thread(tid)
        while len(thread.local) > marker:
            entry = thread.local[-1]
            if entry.is_pulled:
                rt.apply("unpull", tid, entry.op)
            else:
                rt.apply("unapp", tid)
            thread = rt.machine.thread(tid)

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        calls = self.resolve_steps(program)
        checkpoints: List[int] = [0]
        index = 0
        rewinds = 0
        while index < len(calls):
            call_node = calls[index]
            keys = rt.spec.footprint(call_node.method, call_node.args)
            try:
                rt.pull_relevant(tid, keys)
                self.app_call(rt, tid, 0)
            except TMAbort:
                # Partial abort: rewind to the most recent checkpoint whose
                # prefix still validates, refresh, re-execute from there.
                rewinds += 1
                if rewinds > self.max_partial_rewinds:
                    self.full_aborts += 1
                    raise
                while checkpoints:
                    marker = checkpoints[-1]
                    self._rewind_to(rt, tid, marker)
                    if marker == 0 or rt.machine.first_unpushable(tid) is None:
                        break
                    checkpoints.pop()
                self.partial_rewinds += 1
                index = self._index_for_marker(rt, tid)
                yield
                continue
            index += 1
            if index % self.checkpoint_every == 0:
                checkpoints.append(len(rt.machine.thread(tid).local))
            yield
        # Commit (TL2-style): validate everything, push, CMT.
        try:
            self.validate_then_push_all(rt, tid)
        except TMAbort:
            # Commit-time staleness: rewind to the latest checkpoint whose
            # prefix revalidates and resume execution on the next step().
            self.full_aborts += 1
            raise
        self.commit(rt, tid, record)

    @staticmethod
    def _index_for_marker(rt: Runtime, tid: int) -> int:
        """How many program calls the surviving prefix represents: one per
        own (non-pulled) local entry."""
        return len(rt.machine.thread(tid).local.own_ops())
