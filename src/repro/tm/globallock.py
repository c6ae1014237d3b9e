"""Single-global-lock baseline.

The degenerate "TM": a transaction takes the one global token before doing
anything, so transactions execute serially and no rule criterion can ever
fail.  In PUSH/PULL terms it is the discipline PULL* (APP PUSH)* CMT with
the token guaranteeing zero concurrent uncommitted operations.

It is the baseline every TM evaluation compares against: maximal per-
transaction efficiency, zero concurrency.  The harness's throughput proxy
(committed transactions per scheduling quantum) exposes exactly that
trade-off against the real algorithms.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.history import TxRecord
from repro.core.language import Code
from repro.tm.base import Runtime, TMAlgorithm

GLOBAL_TOKEN = "global-lock"


class GlobalLockTM(TMAlgorithm):
    """One transaction at a time; never aborts."""

    name = "globallock"
    opaque = True

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        while not rt.try_token(GLOBAL_TOKEN, tid):
            yield  # spin: the holder will release at commit
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            rt.pull_relevant(tid, keys)
            op = self.app_call(rt, tid, 0)
            self.push_op(rt, tid, op)
            yield  # each operation costs a quantum; the lock is held
            # throughout, so the yield only lets others spin on it.
        self.commit(rt, tid, record)  # the runtime releases the token
