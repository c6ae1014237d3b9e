"""Opacity decided by linearizability against a TMS2-style automaton.

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
not ``allowed`` cannot be repaired by any extension).  The committed
records are sorted by end time, so the DFS's first descent is the
**commit-order witness** — the order every §6 strategy serializes in.
Up to :data:`MAX_EXHAUSTIVE` committed transactions the DFS backtracks
over every extension and the verdict is exact; past it, the decision
takes the witness alone (one commit step per transaction, no
backtracking) and marks its verdict non-exhaustive.  A witness accept
is a linearization, so it is an accept of the full search too; a
witness reject may in principle be a history that linearizes only in
some other order, which is why callers file it under its own kind.

Aborted/active viewers never change the memory and never constrain
*each other's* feasible memory versions beyond monotonicity, so for each
complete committed order they are placed by a greedy monotone assignment
(their mutual real-time order is an interval order whose feasibility
windows nest; smallest-feasible-point-first is optimal).  Every
real-time window comes from bisecting the sorted end and begin times,
and each ``allowed`` judgement goes through the spec's shared
denotation cache, which resumes from the longest prefix already judged
— so the witness walk is linear in the window, not quadratic.

A viewer's *own* operations are the entries of its recorded view that
are neither committed operations (those are justified by the serial
prefix, not replayed) nor pulled-uncommitted entries (those are foreign
tentative effects — §6.5 — and crucially do **not** ride along where
they could self-justify a dirty read: a view whose responses depend on a
never-committed write fails ``allowed`` at every memory version).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.history import History, TxRecord, TxStatus
from repro.core.ops import Op
from repro.core.spec import SequentialSpec, shared_denotations

#: committed transactions (with operations) up to which the decision
#: backtracks over every committed linear extension; past it, the
#: commit-order witness alone decides
MAX_EXHAUSTIVE = 6

#: end time of a still-active record: it precedes nothing
_NEVER = float("inf")

#: process-wide aggregate counters (the ``opacity.*`` family documented
#: in OBSERVABILITY.md).
TMS2_STATS: Dict[str, int] = {
    "opacity.tms2.checks": 0,
    "opacity.tms2.steps": 0,
    "opacity.tms2.allowed_calls": 0,
    "opacity.tms2.witness_only": 0,
}


class Tms2Automaton:
    """The TMS2-style specification automaton, spec-generalized.

    State is the latest memory — the serial log of the operations of the
    transactions committed so far, in witness order; the full TMS2 memory
    *sequence* is recoverable as its prefixes at commit boundaries.  The
    three judgements mirror TMS2's ``DoCommit``/``DoRead`` validation,
    with ``allowed`` (through the spec's shared denotation cache)
    standing in for register-file lookup:

    * :meth:`commit` — an updating commit: legal iff the memory extended
      by the transaction's own operations is allowed; returns the new
      memory (or ``None``);
    * :meth:`observe` — a read-only validation for aborted/active
      viewers: the own operations must be allowed at this memory, which
      is left unchanged;
    * :meth:`initial` — the empty memory.
    """

    __slots__ = ("denots", "allowed_calls")

    def __init__(self, spec: SequentialSpec):
        self.denots = shared_denotations(spec)
        self.allowed_calls = 0

    def initial(self) -> Tuple[Op, ...]:
        return ()

    def commit(
        self, memory: Tuple[Op, ...], own: Tuple[Op, ...]
    ) -> Optional[Tuple[Op, ...]]:
        candidate = memory + own
        self.allowed_calls += 1
        if not self.denots.allowed(candidate):
            return None
        return candidate

    def observe(self, memory: Tuple[Op, ...], own: Tuple[Op, ...]) -> bool:
        self.allowed_calls += 1
        return self.denots.allowed(memory + own)


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
    """The full result of one TMS2 decision."""

    violations: List[str]
    #: DFS nodes expanded over committed linear extensions
    steps: int = 0
    #: ``allowed`` judgements issued by the automaton
    allowed_calls: int = 0
    #: a witness serialization (tx_ids in witness order) when opaque
    witness: Optional[Tuple[int, ...]] = None
    #: False when the commit count exceeded the exhaustive bound and the
    #: commit-order witness alone decided (a reject may then be a false
    #: alarm; an accept never is)
    exhaustive: bool = True

    @property
    def opaque(self) -> bool:
        return not self.violations


def decide_history_opaque_tms2(
    spec: SequentialSpec,
    history: History,
    max_exhaustive: int = MAX_EXHAUSTIVE,
) -> Tms2Verdict:
    """Decide final-state opacity of ``history`` by TMS2 linearizability.

    Exhaustive up to ``max_exhaustive`` committed transactions; past
    that, the commit-order witness alone decides and the verdict says
    so (``exhaustive=False``)."""
    committed = history.committed_records()
    committed_ids = {op.op_id for r in committed for op in r.ops}
    automaton = Tms2Automaton(spec)

    # Non-trivial records only: a record with no own operations is
    # placeable at any point (``allowed`` of the unchanged memory holds
    # by the search invariant), and dropping it cannot hide an ordering
    # conflict — the real-time interval order restricted to the rest has
    # the same linear extensions up to re-insertion.  Committers sort by
    # end time (the commit-order witness, a linear extension of real
    # time); viewers too (active = never), which topologically sorts
    # their interval order.
    committers: List[Tuple[TxRecord, Tuple[Op, ...]]] = sorted(
        ((r, r.ops) for r in committed if r.ops),
        key=lambda item: item[0].end_time,
    )
    viewers: List[Tuple[TxRecord, Tuple[Op, ...]]] = []
    for record in history.records:
        if record.status is TxStatus.COMMITTED:
            continue
        own = own_view(record, committed_ids)
        if own:
            viewers.append((record, own))
    viewers.sort(key=lambda item: _end(item[0]))

    k = len(committers)
    full = (1 << k) - 1
    exhaustive = k <= max_exhaustive
    # Real-time windows by bisection.  Committers that end before a
    # record begins are an end-rank prefix; committers that begin after
    # a record ends are a begin-rank suffix; viewers that end before a
    # viewer begins are a prefix of the viewer order.
    ends = [r.end_time for r, _ in committers]
    by_begin = sorted(range(k), key=lambda i: committers[i][0].begin_time)
    begins = [committers[i][0].begin_time for i in by_begin]
    viewer_ends = [_end(r) for r, _ in viewers]
    # pred_mask[j]: the committers that must precede committer j
    pred_mask = [
        (1 << bisect_left(ends, r.begin_time)) - 1 for r, _ in committers
    ]
    windows = [
        (
            bisect_left(ends, r.begin_time),
            bisect_right(begins, _end(r)),
            bisect_left(viewer_ends, r.begin_time),
        )
        for r, _ in viewers
    ]

    # Diagnostics: was this record ever legal at any explored placement?
    committer_ok = [False] * k
    viewer_ok = [False] * len(viewers)

    def misplaced_viewer(
        order: List[int], memories: List[Tuple[Op, ...]]
    ) -> Optional[TxRecord]:
        """Greedy monotone placement of the viewers against one complete
        committed witness order; returns the first viewer no feasible
        point fits, or ``None`` when every viewer is placed.

        Point ``p`` means "after the first ``p`` committed transactions"
        (``memories[p]``).  Each viewer's real-time constraints against
        committed records give a window ``[lo, hi]``; constraints among
        viewers demand the assignment be monotone along their interval
        order, for which smallest-feasible-point-first (in end-time
        order) is optimal: it pointwise-minimizes the assignment, so any
        feasible assignment dominates it.
        """
        position = [0] * k
        for pos, index in enumerate(order):
            position[index] = pos
        # lo_at[j]: the first point after every committer of end rank < j
        lo_at = [0]
        for index in range(k):
            lo_at.append(max(lo_at[-1], position[index] + 1))
        # hi_from[j]: the last point before every committer of begin rank >= j
        hi_from = [k] * (k + 1)
        for rank in range(k - 1, -1, -1):
            hi_from[rank] = min(hi_from[rank + 1], position[by_begin[rank]])
        # floor[w]: the latest point assigned to viewers[:w]
        floor = [0]
        for v, (before, after, prior) in enumerate(windows):
            own = viewers[v][1]
            lo = max(lo_at[before], floor[prior])
            for point in range(lo, hi_from[after] + 1):
                if automaton.observe(memories[point], own):
                    viewer_ok[v] = True
                    floor.append(max(floor[-1], point))
                    break
            else:
                return viewers[v][0]
        return None

    # Iterative DFS (a window may hold more commits than the recursion
    # limit).  ``resume[d]`` is the next candidate to try at depth d.
    steps = 0
    order: List[int] = []
    memories = [automaton.initial()]
    resume = [0]
    mask = 0
    opaque = False
    stuck: Optional[TxRecord] = None  # the record the last failing step judged
    while True:
        if mask == full:
            stuck = misplaced_viewer(order, memories)
            if stuck is None:
                opaque = True
                break
        index = resume[-1]
        while index < k and (mask >> index & 1 or pred_mask[index] & ~mask):
            index += 1
        if index < k:
            resume[-1] = index + 1
            steps += 1
            extended = automaton.commit(memories[-1], committers[index][1])
            if extended is not None:
                committer_ok[index] = True
                order.append(index)
                memories.append(extended)
                mask |= 1 << index
                # every index below the lowest free bit is placed
                resume.append((~mask & (mask + 1)).bit_length() - 1)
                continue
            # prefix-closed: no extension of this serial prefix can
            # become allowed again — prune the whole subtree
            stuck = committers[index][0]
            if exhaustive:
                continue
        # backtrack (the witness-only walk never does: it takes one order)
        if not order or not exhaustive:
            break
        mask &= ~(1 << order.pop())
        memories.pop()
        resume.pop()

    TMS2_STATS["opacity.tms2.checks"] += 1
    TMS2_STATS["opacity.tms2.steps"] += steps
    TMS2_STATS["opacity.tms2.allowed_calls"] += automaton.allowed_calls
    if not exhaustive:
        TMS2_STATS["opacity.tms2.witness_only"] += 1
    verdict = Tms2Verdict(
        [], steps=steps, allowed_calls=automaton.allowed_calls,
        exhaustive=exhaustive,
    )
    if opaque:
        verdict.witness = tuple(committers[i][0].tx_id for i in order)
        return verdict
    if not exhaustive:
        # the walk stopped at its first failing record
        verdict.violations.append(
            _violation(stuck) + " in the commit-order witness"
        )
        return verdict
    for i, (record, _) in enumerate(committers):
        if not committer_ok[i]:
            verdict.violations.append(_violation(record))
    for v, (record, _) in enumerate(viewers):
        if not viewer_ok[v]:
            verdict.violations.append(_violation(record))
    if not verdict.violations:
        total = k + len(viewers)
        verdict.violations.append(
            f"no serialization of {total} transactions satisfies both "
            f"real-time order and TMS2 validation"
        )
    return verdict


def _end(record: TxRecord) -> float:
    return _NEVER if record.end_time is None else record.end_time


def _violation(record: TxRecord) -> str:
    return (
        f"tx {record.tx_id} ({record.status.value}) observed an "
        f"inconsistent view of {len(record.observed)} operations"
    )


def tms2_stats_snapshot() -> Dict[str, int]:
    """A copy of the process-wide ``opacity.*`` counters."""
    return dict(TMS2_STATS)
