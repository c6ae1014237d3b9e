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
   (``call_commutes``), and :class:`OpacityMonitor` implements the dynamic
   variant: record pulled-uncommitted operations and flag any later APP of
   a non-commuting method while the producer is still uncommitted.

Finally :func:`check_history_opaque` is the history-level checker: every
transaction — *including aborted ones* — must have observed a local view
consistent with some serial execution of (a subset of) the committed
transactions.  This is the standard final-state opacity condition, decided
here by bounded search (adequate for model-checker scopes).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.errors import OpacityViolation
from repro.core.history import History
from repro.core.language import methods_of
from repro.core.machine import Machine
from repro.core.ops import Op
from repro.core.spec import SequentialSpec


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


class OpacityMonitor:
    """Fragment (2), dynamic form.

    Tracks, per thread, the uncommitted operations it has pulled.  On each
    APP the monitor checks the new operation commutes with every tracked
    operation whose producer is *still* uncommitted; a failure means the
    execution has left the opaque fragment.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self._pulled_uncommitted: Dict[int, List[Op]] = {}

    def note_pull(self, tid: int, op: Op, machine_after: Machine) -> None:
        entry = machine_after.global_log.entry_for(op)
        if entry is not None and not entry.is_committed:
            self._pulled_uncommitted.setdefault(tid, []).append(op)
        self.machine = machine_after

    def note_app(self, tid: int, new_op: Op, machine_after: Machine) -> None:
        for pulled in self._pulled_uncommitted.get(tid, ()):
            entry = machine_after.global_log.entry_for(pulled)
            still_uncommitted = entry is not None and not entry.is_committed
            if still_uncommitted and not machine_after.movers.commutes(
                new_op, pulled
            ):
                raise OpacityViolation(
                    f"thread {tid} applied {new_op.pretty()} which does not "
                    f"commute with pulled uncommitted {pulled.pretty()}"
                )
        self.machine = machine_after

    def note_step(self, machine_after: Machine) -> None:
        self.machine = machine_after


def check_view_consistent(
    spec: SequentialSpec,
    committed_tx_ops: Sequence[Tuple[Op, ...]],
    view: Tuple[Op, ...],
    max_exhaustive: int = 6,
) -> bool:
    """Is ``view`` (a transaction's observed local log) justified by some
    serial execution of a subset of the committed transactions?

    Opacity constrains a transaction's *operations and responses*: the
    return values its own operations produced must match what some serial
    execution of committed transactions would have assigned.  Pulled
    entries are bookkeeping, not observations — a pulled operation only
    becomes observable through a later own response, so the check
    quantifies serial logs ``s`` (each permutation of each subset of the
    committed transactions — subsets let later commits serialize after
    the viewer) and asks whether ``s`` extended by the viewer's *own*
    operations is allowed.  A transaction that read an uncommitted value
    whose producer never committed (the §6.5 cascade victim) fails for
    every ``s``.  This is final-state view consistency; real-time
    constraints are the serializability checker's job.
    """
    n = len(committed_tx_ops)
    if n > max_exhaustive:
        raise OpacityViolation(
            f"opacity view check is bounded to {max_exhaustive} committed "
            f"transactions (got {n})"
        )
    committed_ids = {
        op.op_id for ops in committed_tx_ops for op in ops
    }
    own = tuple(op for op in view if op.op_id not in committed_ids)

    # DFS over serial prefixes instead of enumerate-all-permutations:
    # ``allowed`` is prefix-closed, so a prefix that is not allowed can
    # never become allowed by extension — the entire subtree of orders
    # starting with it (and every candidate built from them) is pruned
    # with a single judgement.  The verdict is identical to the full
    # enumeration: any candidate the old loop would have accepted has
    # every prefix allowed, so its path survives the pruning.
    def extend(serial: Tuple[Op, ...], used: int) -> bool:
        if spec.allowed(serial + own):
            return True
        for index in range(n):
            if used >> index & 1:
                continue
            candidate = serial + committed_tx_ops[index]
            if spec.allowed(candidate) and extend(candidate, used | 1 << index):
                return True
        return False

    return extend((), 0)


def check_history_opaque(
    spec: SequentialSpec,
    history: History,
    machine: Machine,
    max_exhaustive: int = 6,
) -> List[str]:
    """Final-state opacity over a recorded run: every attempt's observed
    view (committed *and* aborted) must be consistent per
    :func:`check_view_consistent`.  Returns violation strings."""
    committed_tx_ops = [r.ops for r in history.committed_records()]
    violations: List[str] = []
    for record in history.records:
        if not record.observed:
            continue
        if not check_view_consistent(
            spec, committed_tx_ops, record.observed, max_exhaustive
        ):
            violations.append(
                f"tx {record.tx_id} ({record.status.value}) observed an "
                f"inconsistent view of {len(record.observed)} operations"
            )
    return violations
