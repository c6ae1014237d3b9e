"""Fully pessimistic STM after Matveev & Shavit (§6.3).

The paper's characterisation: *"pessimistic transactions can be
implemented by delaying write operations until the commit phase.  In this
way, write transactions appear to occur instantaneously at the commit
point: all write operations are PUSHed just before CMT, with no
interleaved transactions.  Consequently, read operations perform PULL only
on committed effects."*  The defining property is that **nothing ever
aborts** — conflicts are resolved by waiting.

Discipline:

* **write transactions** hold a single *write token* for their whole
  execution (Matveev–Shavit serialise write transactions), APP all
  operations locally, and at commit PUSH everything and CMT in one
  uninterleaved quantum.  If publication hits a PUSH criterion — which can
  only be an overlapping *reader's* published read (criterion (ii): a read
  of the pre-write value is no left-mover past the write) — the writer
  UNPUSHes its partial publication and **waits** for the reader to commit:
  the quiescence mechanism;
* **read-only transactions** PULL committed effects and APP+PUSH each read
  *in the same quantum* it was applied, so their reads are published
  before any writer can invalidate them.  Readers therefore never wait and
  never abort, and their published uncommitted reads are exactly what
  blocks writers (see above).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import AbortKind, TMAbort
from repro.core.history import TxRecord
from repro.core.language import Code
from repro.tm.base import Runtime, TMAlgorithm

WRITE_TOKEN = "pessimistic-write"


class PessimisticTM(TMAlgorithm):
    """No-abort pessimistic STM: writers wait, readers sail through."""

    name = "pessimistic"
    opaque = True

    def __init__(self, max_publication_waits: int = 10_000):
        self.max_publication_waits = max_publication_waits

    def _is_read_only(self, rt: Runtime, program: Code) -> bool:
        return not any(
            rt.spec.is_mutator(c.method) for c in self.resolve_steps(program)
        )

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        if self._is_read_only(rt, program):
            yield from self._read_attempt(rt, tid, record, program)
        else:
            yield from self._write_attempt(rt, tid, record, program)

    def _read_attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            # pull + app + push in ONE quantum: the read is published
            # before any writer can commit an invalidating write.
            rt.pull_relevant(tid, keys)
            op = self.app_call(rt, tid, 0)
            self.push_op(rt, tid, op)
            yield
        self.commit(rt, tid, record)

    def _write_attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        while not rt.try_token(WRITE_TOKEN, tid):
            yield  # writers serialise; wait, don't abort
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            rt.pull_relevant(tid, keys)
            self.app_call(rt, tid, 0)  # delayed publication
            yield
        # Publication loop: try to push everything at once; if a
        # reader's uncommitted read blocks us, retract and wait.
        waits = 0
        while True:
            try:
                self.push_all_unpushed(rt, tid)
                break
            except TMAbort:
                # retract partial publication, then wait for readers
                thread = rt.machine.thread(tid)
                for op in reversed(thread.local.pushed_ops()):
                    rt.apply("unpush", tid, op)
                waits += 1
                if waits > self.max_publication_waits:  # pragma: no cover
                    raise TMAbort("pessimistic publication starved", AbortKind.STARVATION)
                yield
        self.commit(rt, tid, record)  # the runtime releases the token
