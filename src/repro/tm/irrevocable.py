"""Irrevocable transactions (Welc et al.) — the mixed model of §6.4.

*"There is at most one pessimistic ('irrevocable') transaction and many
optimistic transactions.  The pessimistic transaction PUSHes its effects
instantaneously after APP."*

A transaction turns irrevocable after ``irrevocable_after`` aborts (the
single-retry-then-irrevocable policy of the original paper corresponds to
``irrevocable_after=1``), provided it can take the unique irrevocability
token.  Once irrevocable it:

* PUSHes right after every APP (pessimistic publication), and
* **never aborts**: a PUSH criterion failure (some optimist's uncommitted
  commit-time publication is in flight, or the view went stale) makes it
  *wait and re-pull*, not roll back.

Optimistic transactions run the TL2 discipline; their commit-time pushes
fail against the irrevocable transaction's uncommitted published
operations (PUSH criterion (ii)), so conflicts are always resolved in the
irrevocable transaction's favour — exactly the asymmetry §6.4 describes.
"""

from __future__ import annotations

import collections
from typing import Iterator

from repro.core.errors import AbortKind, TMAbort
from repro.core.history import TxRecord
from repro.core.language import Code
from repro.tm.base import Runtime, TMAlgorithm

IRREVOCABLE_TOKEN = "irrevocable"


class IrrevocableTM(TMAlgorithm):
    """TL2 optimists + at most one never-aborting irrevocable transaction."""

    name = "irrevocable"
    opaque = True

    def __init__(self, irrevocable_after: int = 2, max_waits: int = 10_000):
        self.irrevocable_after = irrevocable_after
        self.max_waits = max_waits
        self._abort_counts: collections.Counter = collections.Counter()

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        if (
            self._abort_counts[tid] >= self.irrevocable_after
            and rt.try_token(IRREVOCABLE_TOKEN, tid)
        ):
            # the runtime releases the token at commit (and at abort)
            yield from self._irrevocable_attempt(rt, tid, record, program)
        else:
            try:
                yield from self._optimistic_attempt(rt, tid, record, program)
            except TMAbort:
                self._abort_counts[tid] += 1
                raise

    def _optimistic_attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        accessed: frozenset = frozenset()
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            accessed = accessed | keys
            rt.pull_relevant(tid, accessed)  # revalidate the whole read set
            self.app_call(rt, tid, 0)
            yield
        self.validate_then_push_all(rt, tid)
        self.commit(rt, tid, record)

    def _irrevocable_attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            waits = 0
            while True:
                try:
                    rt.pull_relevant(tid, keys)
                    op = self.app_call(rt, tid, 0)
                except TMAbort:
                    # A concurrent optimist just committed something our
                    # view cannot absorb mid-flight; as the irrevocable
                    # party we wait (the optimists drain) and retry the
                    # access rather than roll back.
                    waits += 1
                    if waits > self.max_waits:  # pragma: no cover
                        raise TMAbort("irrevocable transaction starved", AbortKind.STARVATION)
                    yield
                    continue
                try:
                    self.push_op(rt, tid, op)
                    break
                except TMAbort:
                    rt.apply("unapp", tid)
                    waits += 1
                    if waits > self.max_waits:  # pragma: no cover
                        raise TMAbort("irrevocable transaction starved", AbortKind.STARVATION)
                    yield
            yield
        self.commit(rt, tid, record)
