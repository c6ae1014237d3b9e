"""TL2-style optimistic STM (§6.2).

The paper's characterisation: *"STMs such as TL2, TinySTM, Intel STM are
optimistic and do not share their effects until they commit.  Transactions
begin by PULLing all operations (there are never uncommitted operations)
by simply viewing the shared state.  As they continue to execute, they APP
locally and do not PUSH until an uninterleaved moment when they check the
second PUSH condition on all of their effects (approximated via read/write
sets) and, if it holds, PUSH everything and CMT.  Effects are pushed in
order so the first PUSH condition is trivial.  If a transaction discovers
a conflict, it can simply perform UNAPP repeatedly and needn't UNPUSH."*

This driver follows that recipe literally:

* **access time** — PULL the relevant committed operations (the snapshot
  grows at first access, like TL2's per-location version reads), APP
  locally, never PUSH;
* **commit time** — in a single uninterleaved quantum, PUSH every local
  operation in APP order (criterion (i) trivial) and CMT.  A PUSH
  criterion failure *is* TL2's validation failure: criterion (iii) fails
  exactly when a read observed a value the now-current shared log
  contradicts;
* **abort** — the generic rollback performs only UNAPPs/UNPULLs (nothing
  was pushed), matching "needn't UNPUSH".

With the machine's gray criteria enabled, stale views are additionally
caught at PULL time (incremental early validation); disabling them defers
all validation to commit — the lazy/eager ablation measured in E2.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.history import TxRecord
from repro.core.language import Code
from repro.tm.base import Runtime, TMAlgorithm


class TL2TM(TMAlgorithm):
    """Commit-time-publication optimistic STM."""

    name = "tl2"
    opaque = True  # PULLs only committed operations

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        accessed: frozenset = frozenset()
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            # TL2's global version clock makes every access revalidate the
            # *whole* read set, not just the new location: pull relevant
            # committed operations for everything touched so far, so a
            # concurrent commit that invalidates an earlier read aborts us
            # here (gray PULL criterion (iii)) before the local view can
            # mix snapshots — the opacity guarantee TL2 is known for.
            accessed = accessed | keys
            rt.pull_relevant(tid, accessed)
            self.app_call(rt, tid, 0)
            yield  # others may interleave between accesses
        # Uninterleaved commit: validate all PUSH conditions first (the
        # read/write-set check), then publish everything and CMT — so an
        # aborting TL2 transaction never needs UNPUSH (§6.2).
        self.validate_then_push_all(rt, tid)
        self.commit(rt, tid, record)
