"""Elastic transactions (Felber, Gramoli & Guerraoui, DISC'09 [9]).

The paper's §8 names "weaker notions than serializability [9, 3]" as
future work; elastic transactions are the cited system.  An elastic
transaction may be **cut** into consecutive pieces: on a conflict, instead
of aborting, the transaction commits the operations executed so far as one
transaction and continues the remainder as a new one.  Each piece is
serializable on its own; the composite is weaker than one atomic block
(another transaction may serialize between the pieces) — which is exactly
right for search-structure traversals, the use case elastic transactions
target.

PUSH/PULL rendering: the machine thread runs TL2-style (APP locally); on a
conflict that invalidates only *future* work (a pull-time or commit-time
criterion failure), the driver

1. validates and PUSHes the already-applied prefix and CMTs it as a piece
   (the machine thread ends; committed ops flagged in history),
2. spawns a fresh machine thread for the remaining program and continues.

Cut safety follows the elastic rule: a cut is allowed only between two
operations whose footprints are disjoint from every *written* footprint of
the prefix (writes must stay atomic with their subsequent reads); the
driver tracks written keys and refuses unsafe cuts (falling back to a
plain abort).  Each piece is recorded as its own transaction in the
history, so the serializability checker validates piece-level
serializability — the elastic correctness criterion.
"""

from __future__ import annotations

from typing import Iterator, Set

from repro.core.errors import TMAbort
from repro.core.history import TxRecord
from repro.core.language import Choice, Code, SKIP, Seq
from repro.tm.base import Runtime, TMAlgorithm


def elastic_program(calls) -> Code:
    """The elastic shape of a straight-line transaction: a ``skip``
    alternative at every piece boundary —

        op1 ; (skip + (op2 ; (skip + ...)))

    ``fin`` holds at each boundary, so CMT criterion (i) admits committing
    any prefix as a piece.  This is not an encoding trick: it *is* the
    semantic content of elasticity — the programmer consents to the
    transaction taking effect as a sequence of atomic pieces.  Built from
    the last call back, so a long program costs no stack."""
    if not calls:
        return SKIP
    program = calls[-1]
    for call_node in reversed(calls[:-1]):
        program = Seq(call_node, Choice(SKIP, program))
    return program


class ElasticTM(TMAlgorithm):
    """TL2 with elastic cuts instead of (some) aborts."""

    name = "elastic"
    #: Elastic transactions guarantee *elastic opacity* (per-piece
    #: consistency), strictly weaker than opacity: across a cut boundary a
    #: doomed attempt can observe values from both sides of another
    #: transaction's commit.  The chaos nemesis finds fault-free witnesses
    #: (see tests/test_faults.py); committed histories stay serializable.
    opaque = False
    #: A cut lets another transaction serialize between two pieces of one
    #: submitted program, so committed effects are *not* promised to be
    #: coverable by an atomic execution of the original programs — the
    #: differential fuzz oracle must not hold elastic to that bar.
    atomic_reference = False

    def __init__(self, max_cuts: int = 8):
        self.max_cuts = max_cuts
        #: cut events observed (exposed for benchmarks/tests)
        self.cuts = 0
        #: committed-piece progress per thread: a retry after an abort
        #: must resume from the remainder (the earlier pieces are
        #: permanently committed), not from call 0.
        self._resume_index: dict = {}

    def prepare_program(self, program: Code) -> Code:
        return elastic_program(self.resolve_steps(program))

    def _cut_safe(self, rt: Runtime, tid: int, written: Set) -> bool:
        """A cut is safe when nothing in the applied prefix wrote state the
        remainder may rely on non-atomically: conservatively, when the
        prefix has no unpublished mutators entangled with the remainder —
        we allow the cut iff the prefix validates as a transaction on its
        own — the machine does the fine-grained reasoning."""
        return rt.machine.first_unpushable(tid) is None

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        calls = self.resolve_steps(program)
        index = self._resume_index.get(tid, 0)
        cuts_done = 0
        written: Set = set()
        while index < len(calls):
            call_node = calls[index]
            keys = rt.spec.footprint(call_node.method, call_node.args)
            try:
                rt.pull_relevant(tid, keys)
                self.app_call(rt, tid, 0)
            except TMAbort:
                # Conflict. Try to CUT: commit the prefix as a piece and
                # continue with the remainder in a fresh machine thread.
                if (
                    cuts_done >= self.max_cuts
                    or len(rt.machine.thread(tid).local.own_ops()) == 0
                    or not self._cut_safe(rt, tid, written)
                ):
                    raise  # plain abort (rollback handled by the stepper)
                self._cut(rt, tid, record, calls, index)
                cuts_done += 1
                yield
                continue
            if rt.spec.is_mutator(call_node.method):
                written |= keys
            index += 1
            yield
        # Commit-time conflicts can also be absorbed by a cut: commit the
        # longest prefix that still validates as its own piece, rewind the
        # rest and re-run it as a fresh transaction.
        try:
            self.validate_then_push_all(rt, tid)
        except TMAbort:
            if cuts_done >= self.max_cuts:
                raise
            survivors = self._longest_valid_prefix(rt, tid)
            if survivors == 0:
                raise
            self._rewind_own_suffix(rt, tid, survivors)
            resume_from = self._resume_index.get(tid, 0) + survivors
            self._cut(rt, tid, record, calls, resume_from)
            yield
            # re-run the remainder as a (non-cutting) tail attempt.
            for call_node in calls[resume_from:]:
                keys = rt.spec.footprint(call_node.method, call_node.args)
                rt.pull_relevant(tid, keys)
                self.app_call(rt, tid, 0)
                yield
            self.validate_then_push_all(rt, tid)
        self.commit(rt, tid, record)
        self._resume_index.pop(tid, None)

    def _cut(self, rt: Runtime, tid: int, record: TxRecord, calls, resume_from: int) -> None:
        """Publish and commit the applied prefix as its own piece, then run
        ``calls[resume_from:]`` in a fresh machine thread with the same tid
        (the stepper's own ``record`` stays attached to the final piece)."""
        self.push_all_unpushed(rt, tid)
        self.commit(rt, tid, rt.history.begin(tid, retries_of=record.tx_id))
        rt.machine = rt.machine.end_thread(tid)
        rt.machine, _ = rt.machine.spawn(elastic_program(calls[resume_from:]), tid=tid)
        self._resume_index[tid] = resume_from
        self.cuts += 1

    def _longest_valid_prefix(self, rt: Runtime, tid: int) -> int:
        """The largest k such that the first k own operations validate as
        a transaction on their own: those before the first that cannot be
        PUSHed."""
        own = rt.machine.thread(tid).local.own_ops()
        refused = rt.machine.first_unpushable(tid)
        return len(own) if refused is None else own.index(refused[0])

    def _rewind_own_suffix(self, rt: Runtime, tid: int, keep: int) -> None:
        """UNAPP/UNPULL local entries until only ``keep`` own ops remain."""
        thread = rt.machine.thread(tid)
        while len(thread.local.own_ops()) > keep:
            entry = thread.local[-1]
            if entry.is_pulled:
                rt.apply("unpull", tid, entry.op)
            else:
                rt.apply("unapp", tid)
            thread = rt.machine.thread(tid)
        # drop trailing pulled entries too (they belong to the remainder's
        # fresh view)
        while len(thread.local) > 0 and thread.local[-1].is_pulled:
            rt.apply("unpull", tid, thread.local[-1].op)
            thread = rt.machine.thread(tid)
