"""Encounter-time optimistic STM (TinySTM-style write-through, §6.2).

Same optimistic family as :class:`~repro.tm.tl2.TL2TM`, but every
operation is PUSHed immediately after its APP — the PUSH/PULL rendering
of encounter-time locking / early conflict detection with *visible reads*
(the paper notes early conflict detection "involves a form of PUSH", §4's
PUSH application note citing [13]).

Pushing must follow APP (local-log) order: an operation pushed late lands
at the *tail* of the global log, after the transaction's own later
mutators, where PUSH criterion (iii) rightly rejects e.g. a read of the
pre-write value.  Hence eager publication here is all-or-nothing per
prefix — every operation goes out at its APP, reads included.

Consequences the E2 benchmark measures:

* write/write conflicts surface at the *first* conflicting access (PUSH
  criterion (ii): the earlier writer's uncommitted operation is no right
  mover past the later one), not at commit — doomed transactions stop
  wasting work early;
* visible reads block conflicting writers early (their PUSH criterion
  (ii) fails against our published read) instead of letting them doom us;
* aborts must UNPUSH (the generic rollback handles it), unlike TL2.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.history import TxRecord
from repro.core.language import Code
from repro.tm.base import Runtime, TMAlgorithm


class EncounterTM(TMAlgorithm):
    """Optimistic STM with eager publication of mutators."""

    name = "encounter"
    opaque = True

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            rt.pull_relevant(tid, keys)
            op = self.app_call(rt, tid, 0)
            self.push_op(rt, tid, op)  # encounter-time publication
            yield
        self.commit(rt, tid, record)
