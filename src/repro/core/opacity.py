"""Opacity as a fragment of PUSH/PULL (§6.1).

The paper characterises opacity [Guerraoui & Kapalka] inside PUSH/PULL in
two ways:

1. **The no-uncommitted-PULL fragment.**  If transactions only ever PULL
   operations flagged ``gCmt``, they never observe tentative effects and
   the execution is opaque.  :class:`OpaqueMachine` enforces this
   syntactically (a PULL of a ``gUCmt`` entry raises
   :class:`~repro.core.errors.OpacityViolation`).

2. **The commutative relaxation.**  A transaction *may* PULL an
   uncommitted operation ``m'`` provided it will never execute a method
   that fails to commute with ``m'`` — checkable by examining the set of
   reachable operations of its remaining code.  :func:`may_pull_uncommitted`
   implements the static variant over ``methods_of(c)``, using a
   conservative per-call commutativity judgement supplied by the spec
   (``call_commutes``).

Histories are judged elsewhere: :mod:`repro.checking.tms2` decides
final-state opacity of a recorded run — every transaction, *including
aborted ones*, must have observed a view one shared serialization of the
committed transactions justifies.
"""

from __future__ import annotations

from repro.core.errors import OpacityViolation
from repro.core.language import methods_of
from repro.core.machine import Machine
from repro.core.ops import Op


class OpaqueMachine:
    """A :class:`~repro.core.machine.Machine` wrapper enforcing fragment
    (1): PULL is only permitted on committed global-log entries.

    All other rules delegate unchanged — the wrapper owns no state beyond
    the current machine, exposed as :attr:`machine`.
    """

    def __init__(self, machine: Machine):
        self.machine = machine

    def _lift(self, new_machine: Machine) -> "OpaqueMachine":
        return OpaqueMachine(new_machine)

    def pull(self, tid: int, op: Op) -> "OpaqueMachine":
        entry = self.machine.global_log.entry_for(op)
        if entry is not None and not entry.is_committed:
            raise OpacityViolation(
                f"opaque fragment forbids PULL of uncommitted {op.pretty()}"
            )
        return self._lift(self.machine.pull(tid, op))

    def __getattr__(self, name: str):
        attribute = getattr(self.machine, name)
        if callable(attribute) and name in (
            "app",
            "unapp",
            "push",
            "unpush",
            "unpull",
            "cmt",
            "end_thread",
        ):

            def wrapped(*args, **kwargs):
                return self._lift(attribute(*args, **kwargs))

            return wrapped
        if name == "spawn":

            def wrapped_spawn(*args, **kwargs):
                new_machine, tid = attribute(*args, **kwargs)
                return self._lift(new_machine), tid

            return wrapped_spawn
        return attribute


def may_pull_uncommitted(
    machine: Machine, tid: int, op: Op
) -> bool:
    """Fragment (2), static form: thread ``tid`` may PULL uncommitted
    ``op`` if every method reachable in its remaining code commutes with
    ``op`` for every possible return value.

    The per-call judgement is delegated to the spec's optional
    ``call_commutes(method, args, op) -> bool`` (conservative: must only
    answer ``True`` when commutation holds for *all* rets); specs without
    it fall back to ``False`` — i.e. no relaxation.
    """
    spec = machine.spec
    judge = getattr(spec, "call_commutes", None)
    if judge is None:
        return False
    thread = machine.thread(tid)
    for call_node in methods_of(thread.code):
        if not judge(call_node.method, call_node.args, op):
            return False
    return True
