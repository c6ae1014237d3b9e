"""Opacity decided by linearizability against a TMS2-style automaton.

The bounded checker (:func:`repro.core.opacity.check_history_opaque`)
quantifies, *per viewer*, over serial executions of arbitrary subsets of
the committed transactions — no shared witness order, no real-time
constraints, and a viewer's pulled-uncommitted operations ride along in
its view where they can self-justify a dirty read.  That is sound enough
to catch gross inconsistencies on model-checker scopes but it is not a
decision procedure: it can accept histories no serialization justifies.

This module implements the reduction of Armstrong, Dongol & Doherty
(arXiv:1610.01004, PAPERS.md): a history is opaque iff it linearizes
against a TMS2-style specification automaton.  Concretely
(final-state opacity, Guerraoui & Kapalka):

* the automaton's state is the *memory sequence* — here generalized from
  read/write registers to an arbitrary prefix-closed
  :class:`~repro.core.spec.SequentialSpec` by keeping the latest memory
  as the serial log of committed operations so far (every earlier memory
  is one of its prefixes);
* a committing transaction appends its own operations to the memory,
  legal iff ``spec.allowed(memory + own)``;
* an aborted or still-active transaction must *validate* at some memory
  version — ``spec.allowed(memory + own)`` at its linearization point —
  without changing the memory;
* one **shared witness order** serves every transaction simultaneously,
  and it must be a linear extension of the history's real-time interval
  order (``a`` ended before ``b`` began ⇒ ``a`` before ``b``) over *all*
  records, committed and aborted alike.

Transaction-granular placement is equivalent to event-granular
linearizability here: ``allowed`` is prefix-closed, so the final own
operation's check at one memory version subsumes the checks of every
prefix of the transaction's own sequence at that same version, and
TMS2's freedom to pick any memory index ``n ≥ beginIdx`` is exactly the
placement freedom of the linearization point.

The search is a DFS over linear extensions of the committed records'
real-time order, pruned by prefix-closedness (a serial prefix that is
not ``allowed`` cannot be repaired by any extension).  Aborted/active
viewers never change the memory and never constrain *each other's*
feasible memory versions beyond monotonicity, so for each complete
committed order they are placed by a greedy monotone assignment (their
mutual real-time order is an interval order whose feasibility windows
nest; smallest-feasible-point-first is optimal), which keeps the
procedure polynomial in the number of aborted attempts and factorial
only in the (bounded) number of commits.

A viewer's *own* operations are the entries of its recorded view that
are neither committed operations (those are justified by the serial
prefix, not replayed) nor pulled-uncommitted entries (those are foreign
tentative effects — §6.5 — and crucially do **not** ride along where
they could self-justify a dirty read: a view whose responses depend on a
never-committed write fails ``allowed`` at every memory version).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import OpacityViolation
from repro.core.history import History, TxRecord, TxStatus
from repro.core.ops import Op
from repro.core.spec import SequentialSpec

#: process-wide aggregate counters (the ``opacity.*`` family documented
#: in OBSERVABILITY.md).
TMS2_STATS: Dict[str, int] = {
    "opacity.tms2.checks": 0,
    "opacity.tms2.steps": 0,
    "opacity.tms2.allowed_calls": 0,
    "opacity.agreement.checks": 0,
    "opacity.agreement.divergences": 0,
}


class Tms2Automaton:
    """The TMS2-style specification automaton, spec-generalized.

    State is the latest memory — the serial log of the operations of the
    transactions committed so far, in witness order; the full TMS2 memory
    *sequence* is recoverable as its prefixes at commit boundaries.  The
    three judgements mirror TMS2's ``DoCommit``/``DoRead`` validation,
    with ``spec.allowed`` standing in for register-file lookup:

    * :meth:`commit` — an updating commit: legal iff the memory extended
      by the transaction's own operations is allowed; returns the new
      memory (or ``None``);
    * :meth:`observe` — a read-only validation for aborted/active
      viewers: the own operations must be allowed at this memory, which
      is left unchanged;
    * :meth:`initial` — the empty memory.
    """

    __slots__ = ("spec", "allowed_calls")

    def __init__(self, spec: SequentialSpec):
        self.spec = spec
        self.allowed_calls = 0

    def initial(self) -> Tuple[Op, ...]:
        return ()

    def commit(
        self, memory: Tuple[Op, ...], own: Tuple[Op, ...]
    ) -> Optional[Tuple[Op, ...]]:
        candidate = memory + own
        self.allowed_calls += 1
        if not self.spec.allowed(candidate):
            return None
        return candidate

    def observe(self, memory: Tuple[Op, ...], own: Tuple[Op, ...]) -> bool:
        self.allowed_calls += 1
        return self.spec.allowed(memory + own)


def own_view(record: TxRecord, committed_ids: Set[int]) -> Tuple[Op, ...]:
    """The operations of ``record`` the automaton must validate.

    Committed records answer with their own operations (the recorded
    local-log order).  Aborted/active records answer with their observed
    view minus committed operations (justified by the serial prefix) and
    minus pulled-uncommitted entries (foreign tentative effects)."""
    if record.status is TxStatus.COMMITTED:
        return record.ops
    dirty = {op.op_id for op in record.pulled_uncommitted}
    return tuple(
        op
        for op in record.observed
        if op.op_id not in committed_ids and op.op_id not in dirty
    )


@dataclass
class Tms2Verdict:
    """The full result of one TMS2 decision (``violations`` is the
    bounded-checker-shaped surface most callers use)."""

    violations: List[str]
    #: DFS nodes expanded over committed linear extensions
    steps: int = 0
    #: ``spec.allowed`` judgements issued by the automaton
    allowed_calls: int = 0
    #: a witness serialization (tx_ids in witness order) when opaque
    witness: Optional[Tuple[int, ...]] = None

    @property
    def opaque(self) -> bool:
        return not self.violations


def decide_history_opaque_tms2(
    spec: SequentialSpec,
    history: History,
    machine=None,
    max_exhaustive: int = 6,
) -> Tms2Verdict:
    """Decide final-state opacity of ``history`` by TMS2 linearizability.

    ``machine`` is accepted (and ignored) for signature compatibility
    with :func:`repro.core.opacity.check_history_opaque`.  Raises
    :class:`~repro.core.errors.OpacityViolation` past the commit bound,
    mirroring the bounded checker's contract.
    """
    committed = history.committed_records()
    if len(committed) > max_exhaustive:
        raise OpacityViolation(
            f"TMS2 opacity check is bounded to {max_exhaustive} committed "
            f"transactions (got {len(committed)})"
        )
    committed_ids = {op.op_id for r in committed for op in r.ops}
    automaton = Tms2Automaton(spec)

    # Non-trivial records only: a record with no own operations is
    # placeable at any point (``allowed`` of the unchanged memory holds
    # by the search invariant), and dropping it cannot hide an ordering
    # conflict — the real-time interval order restricted to the rest has
    # the same linear extensions up to re-insertion.
    committers: List[Tuple[TxRecord, Tuple[Op, ...]]] = [
        (r, r.ops) for r in committed if r.ops
    ]
    viewers: List[Tuple[TxRecord, Tuple[Op, ...]]] = []
    for record in history.records:
        if record.status is TxStatus.COMMITTED:
            continue
        own = own_view(record, committed_ids)
        if own:
            viewers.append((record, own))
    # Interval orders topologically sort by end time (active = never).
    viewers.sort(
        key=lambda item: (
            item[0].end_time if item[0].end_time is not None else 1 << 60
        )
    )

    k = len(committers)
    # committed-committed real-time predecessors, as bitmasks
    pred_mask = [0] * k
    for i, (a, _) in enumerate(committers):
        for j, (b, _) in enumerate(committers):
            if i != j and history.precedes(a, b):
                pred_mask[j] |= 1 << i
    full = (1 << k) - 1

    # Diagnostics: was this record ever legal at any explored placement?
    committer_ok = [False] * k
    viewer_ok = [False] * len(viewers)
    steps = 0

    def viewers_placeable(order: Sequence[int]) -> bool:
        """Greedy monotone placement of the viewers against one complete
        committed witness order.

        Point ``p`` means "after the first ``p`` committed transactions".
        Each viewer's real-time constraints against committed records
        give a window ``[lo, hi]``; constraints among viewers demand the
        assignment be monotone along their interval order, for which
        smallest-feasible-point-first (in end-time order) is optimal:
        it pointwise-minimizes the assignment, so any feasible
        assignment dominates it.
        """
        memories: List[Tuple[Op, ...]] = [()]
        for index in order:
            memories.append(memories[-1] + committers[index][1])
        position = {index: pos for pos, index in enumerate(order)}
        assigned: List[int] = []
        for v, (record, own) in enumerate(viewers):
            lo, hi = 0, k
            for i, (c, _) in enumerate(committers):
                if history.precedes(c, record):
                    lo = max(lo, position[i] + 1)
                elif history.precedes(record, c):
                    hi = min(hi, position[i])
            for w in range(v):
                if history.precedes(viewers[w][0], record):
                    lo = max(lo, assigned[w])
            point = None
            for p in range(lo, hi + 1):
                if automaton.observe(memories[p], own):
                    viewer_ok[v] = True
                    point = p
                    break
            if point is None:
                return False
            assigned.append(point)
        return True

    witness: Optional[Tuple[int, ...]] = None

    def dfs(mask: int, memory: Tuple[Op, ...], order: List[int]) -> bool:
        nonlocal steps, witness
        if mask == full:
            if viewers_placeable(order):
                witness = tuple(committers[i][0].tx_id for i in order)
                return True
            return False
        for i in range(k):
            if mask >> i & 1 or pred_mask[i] & ~mask:
                continue
            steps += 1
            extended = automaton.commit(memory, committers[i][1])
            if extended is None:
                # prefix-closed: no extension of this serial prefix can
                # become allowed again — prune the whole subtree
                continue
            committer_ok[i] = True
            order.append(i)
            if dfs(mask | 1 << i, extended, order):
                return True
            order.pop()
        return False

    opaque = dfs(0, automaton.initial(), [])
    TMS2_STATS["opacity.tms2.checks"] += 1
    TMS2_STATS["opacity.tms2.steps"] += steps
    TMS2_STATS["opacity.tms2.allowed_calls"] += automaton.allowed_calls
    if opaque:
        return Tms2Verdict(
            [], steps=steps, allowed_calls=automaton.allowed_calls,
            witness=witness,
        )
    violations: List[str] = []
    for i, (record, _) in enumerate(committers):
        if not committer_ok[i]:
            violations.append(_violation(record))
    for v, (record, _) in enumerate(viewers):
        if not viewer_ok[v]:
            violations.append(_violation(record))
    if not violations:
        total = k + len(viewers)
        violations.append(
            f"no serialization of {total} transactions satisfies both "
            f"real-time order and TMS2 validation"
        )
    return Tms2Verdict(
        violations, steps=steps, allowed_calls=automaton.allowed_calls
    )


def _violation(record: TxRecord) -> str:
    return (
        f"tx {record.tx_id} ({record.status.value}) observed an "
        f"inconsistent view of {len(record.observed)} operations"
    )


def check_history_opaque_tms2(
    spec: SequentialSpec,
    history: History,
    machine=None,
    max_exhaustive: int = 6,
) -> List[str]:
    """Drop-in peer of :func:`repro.core.opacity.check_history_opaque`:
    same signature, same violation-string shape, but a sound *and*
    complete (final-state) verdict on bounded scopes."""
    return decide_history_opaque_tms2(
        spec, history, machine, max_exhaustive
    ).violations


@dataclass
class OpacityAgreement:
    """One differential run of both opacity oracles over one history."""

    bounded: List[str] = field(default_factory=list)
    tms2: List[str] = field(default_factory=list)
    #: both checkers ran to completion inside their bounds
    checked: bool = False

    @property
    def agree(self) -> bool:
        return bool(self.bounded) == bool(self.tms2)

    @property
    def divergent(self) -> bool:
        return self.checked and not self.agree

    def describe(self) -> str:
        return (
            f"bounded={'reject' if self.bounded else 'accept'} "
            f"tms2={'reject' if self.tms2 else 'accept'}"
        )


def check_opacity_agreement(
    spec: SequentialSpec,
    history: History,
    machine=None,
    max_exhaustive: int = 6,
) -> OpacityAgreement:
    """Run the bounded checker and the TMS2 decision procedure over the
    same history and compare verdicts.  Disagreement is meaningful in one
    direction only — the bounded checker accepting a history TMS2 rejects
    witnesses its known incompleteness; the converse would be a bug in
    one of the two.  Histories past either bound report ``checked=False``
    and never count as divergent."""
    from repro.core.opacity import check_history_opaque

    result = OpacityAgreement()
    try:
        result.bounded = check_history_opaque(
            spec, history, machine, max_exhaustive
        )
        result.tms2 = check_history_opaque_tms2(
            spec, history, machine, max_exhaustive
        )
    except OpacityViolation:
        return result
    result.checked = True
    TMS2_STATS["opacity.agreement.checks"] += 1
    if not result.agree:
        TMS2_STATS["opacity.agreement.divergences"] += 1
    return result


def tms2_stats_snapshot() -> Dict[str, int]:
    """A copy of the process-wide ``opacity.*`` counters."""
    return dict(TMS2_STATS)
