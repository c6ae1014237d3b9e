"""The §5.3 invariants, executable.

The serializability proof rests on a family of invariants over machine
states (Lemmas 5.7–5.13).  The paper proves them once and for all; this
module makes each of them *checkable* on a concrete state so that the
model checker (and the property tests) can empirically confirm they hold
on every reachable state — which is precisely what a reproduction of a
semantics paper can measure.

All checkers return a list of human-readable violation strings (empty ⇒
invariant holds), so a failing model-checking run pinpoints the state and
the clause.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.logs import ops_minus
from repro.core.machine import Machine, Thread
from repro.core.precongruence import precongruent


def check_I_LG(machine: Machine) -> List[str]:
    """Lemma 5.7 — local flags agree with global membership:
    ``pshd`` entries are in ``G``; ``npshd`` entries are not."""
    violations = []
    for thread in machine.threads:
        violations.extend(check_I_LG_thread(machine, thread))
    return violations


def check_I_LG_thread(machine: Machine, thread: Thread) -> List[str]:
    violations = []
    gids = machine.global_log.ids()
    for entry in thread.local:
        if entry.is_pushed and entry.op.op_id not in gids:
            violations.append(
                f"I_LG: thread {thread.tid} pshd {entry.op.pretty()} not in G"
            )
        if entry.is_not_pushed and entry.op.op_id in gids:
            violations.append(
                f"I_LG: thread {thread.tid} npshd {entry.op.pretty()} in G"
            )
    return violations


def check_I_slideR(machine: Machine) -> List[str]:
    """Lemma 5.8 — an own uncommitted pushed operation ``op1`` occurring in
    ``G`` before another transaction's operation ``op2`` satisfies
    ``op1 ◁ op2`` (your uncommitted work moves right of everyone later)."""
    violations = []
    for thread in machine.threads:
        violations.extend(check_I_slideR_thread(machine, thread))
    return violations


def check_I_slideR_thread(machine: Machine, thread: Thread) -> List[str]:
    violations = []
    entries = machine.global_log.entries
    own = thread.own_op_ids()
    for i, e1 in enumerate(entries):
        if e1.is_committed or e1.op.op_id not in own:
            continue
        for e2 in entries[i + 1 :]:
            if e2.op.op_id in own:
                continue
            if not machine.movers.left_mover(e1.op, e2.op):
                violations.append(
                    f"I_slideR: thread {thread.tid}: {e1.op.pretty()} "
                    f"(gUCmt) before {e2.op.pretty()} but not ◁"
                )
    return violations


def check_I_reorderPUSH(machine: Machine) -> List[str]:
    """Lemma 5.10 — if a transaction pushed two of its own (uncommitted)
    operations out of local order (``m1`` before ``m2`` locally but ``m2``
    before ``m1`` in ``G``) then ``m2 ◁ m1``."""
    violations = []
    for thread in machine.threads:
        violations.extend(check_I_reorderPUSH_thread(machine, thread))
    return violations


def check_I_reorderPUSH_thread(machine: Machine, thread: Thread) -> List[str]:
    violations = []
    own_order = [op for op in thread.local.own_ops()]
    positions = {op.op_id: i for i, op in enumerate(own_order)}
    g_uncommitted = [
        e.op
        for e in machine.global_log
        if not e.is_committed and e.op.op_id in positions
    ]
    for gi, m2 in enumerate(g_uncommitted):
        for m1 in g_uncommitted[gi + 1 :]:
            # m2 precedes m1 in G; is the local order the opposite?
            if positions[m1.op_id] < positions[m2.op_id]:
                if not machine.movers.left_mover(m2, m1):
                    violations.append(
                        f"I_reorderPUSH: thread {thread.tid}: "
                        f"{m2.pretty()} pushed before {m1.pretty()} "
                        f"against local order but not ◁"
                    )
    return violations


def check_I_localOrder(machine: Machine) -> List[str]:
    """Lemma 5.12 — a pushed own operation ``m1`` moves left of every
    not-pushed own operation ``m2`` occurring *earlier* in the local log
    (``L = L1·[m2, npshd]·L2·[m1, pshd]·L3 ⇒ m1 ◁ m2``)."""
    violations = []
    for thread in machine.threads:
        violations.extend(check_I_localOrder_thread(machine, thread))
    return violations


def check_I_localOrder_thread(machine: Machine, thread: Thread) -> List[str]:
    violations = []
    entries = thread.local.entries
    for i, e2 in enumerate(entries):
        if not e2.is_not_pushed:
            continue
        for e1 in entries[i + 1 :]:
            if not e1.is_pushed:
                continue
            if not machine.movers.left_mover(e1.op, e2.op):
                violations.append(
                    f"I_localOrder: thread {thread.tid}: pushed "
                    f"{e1.op.pretty()} after unpushed {e2.op.pretty()} "
                    f"but not ◁"
                )
    return violations


def check_I_slidePushed(machine: Machine, thread: Thread) -> List[str]:
    """Lemma 5.9 — ``G ≼ (G ∖ ⌊L⌋_pshd) · (G ∩ ⌊L⌋_pshd)``: the thread's
    pushed operations can slide to the end of the global log."""
    g_ops = machine.global_log.all_ops()
    pushed = thread.local.pushed_ops()
    lhs = g_ops
    rhs = ops_minus(g_ops, pushed) + machine.global_log.intersect_ops(pushed)
    if not precongruent(machine.spec, lhs, rhs):
        return [
            f"I_slidePushed: thread {thread.tid}: G ⋠ (G∖⌊L⌋_pshd)·(G∩⌊L⌋_pshd)"
        ]
    return []


def check_I_chronPush(machine: Machine, thread: Thread) -> List[str]:
    """Lemma 5.11 — pushed operations can be re-serialised in local-log
    (chronological) order:
    ``(G∖⌊L⌋_pshd)·(G∩⌊L⌋_pshd) ≼ (G∖⌊L⌋_pshd)·⌊L⌋_pshd``."""
    g_ops = machine.global_log.all_ops()
    pushed = thread.local.pushed_ops()
    base = ops_minus(g_ops, pushed)
    lhs = base + machine.global_log.intersect_ops(pushed)
    rhs = base + pushed
    if not precongruent(machine.spec, lhs, rhs):
        return [
            f"I_chronPush: thread {thread.tid}: global-order pushes ⋠ "
            f"local-order pushes"
        ]
    return []


def check_I_localReorder(machine: Machine, thread: Thread) -> List[str]:
    """Lemma 5.13 — pushed-then-unpushed can be re-serialised into plain
    local-log order:
    ``(G∖⌊L⌋_pshd)·⌊L⌋_pshd·⌊L⌋_npshd ≼ (G∖⌊L⌋_pshd)·⌊L⌋_own``
    where ``⌊L⌋_own`` interleaves pushed and unpushed own operations in
    their local-log order (the paper's ``⌊L⌋^npshd_pshd``)."""
    g_ops = machine.global_log.all_ops()
    pushed = thread.local.pushed_ops()
    not_pushed = thread.local.not_pushed_ops()
    base = ops_minus(g_ops, pushed)
    lhs = base + pushed + not_pushed
    rhs = base + thread.local.own_ops()
    if not precongruent(machine.spec, lhs, rhs):
        return [
            f"I_localReorder: thread {thread.tid}: segregated own ops ⋠ "
            f"local-order own ops"
        ]
    return []


ALL_GLOBAL_INVARIANTS = (
    check_I_LG,
    check_I_slideR,
    check_I_reorderPUSH,
    check_I_localOrder,
)

ALL_THREAD_INVARIANTS = (
    check_I_slidePushed,
    check_I_chronPush,
    check_I_localReorder,
)


def check_all_invariants(machine: Machine) -> List[str]:
    """Run every §5.3 invariant on ``machine``; return all violations."""
    violations: List[str] = []
    for checker in ALL_GLOBAL_INVARIANTS:
        violations.extend(checker(machine))
    for thread in machine.threads:
        for thread_checker in ALL_THREAD_INVARIANTS:
            violations.extend(thread_checker(machine, thread))
    return violations


_PER_THREAD_CHECKERS = (
    check_I_LG_thread,
    check_I_slideR_thread,
    check_I_reorderPUSH_thread,
    check_I_localOrder_thread,
    check_I_slidePushed,
    check_I_chronPush,
    check_I_localReorder,
)

#: the shared all-clauses-hold vector (see _thread_invariant_vector)
_CLEAN_VECTOR = ((),) * len(_PER_THREAD_CHECKERS)


def _thread_invariant_vector(
    machine: Machine, thread: Thread, cache: dict
) -> Tuple[List[str], ...]:
    """All seven invariants restricted to one thread, memoized.

    Every §5.3 invariant decomposes into per-thread clauses whose truth
    depends only on the thread's local log, the global log, and which
    global entries the thread owns — never on codes, stacks or the other
    threads' logs.  The memo key is that dependency set at *payload* level
    (the same abstraction as the machine's canonical state key), packed to
    interned byte columns so a revisit costs three pointer loads and one
    bytes-hash lookup; the model checker re-pays an invariant sweep only
    when a thread's actual log configuration is new, not once per product
    state of the scope.
    """
    local = thread.local
    global_log = machine.global_log
    key = (
        thread.tid,
        local.packed(),
        global_log.packed(),
        global_log.own_bytes(local.ids()),
    )
    got = cache.get(key)
    if got is None:
        got = tuple(
            checker(machine, thread) for checker in _PER_THREAD_CHECKERS
        )
        if not any(got):
            # The overwhelmingly common case — every clause holds — maps
            # to one shared sentinel so the sweep can skip the merge loops
            # with a single identity check per thread.
            got = _CLEAN_VECTOR
        cache[key] = got
    return got


def check_all_invariants_cached(machine: Machine, cache: dict) -> List[str]:
    """:func:`check_all_invariants`, memoized per thread through ``cache``
    (a plain dict owned by the caller, e.g. one per model-checking run).
    Violations come back in exactly the order of the uncached checker."""
    clean = True
    vectors = []
    for thread in machine.threads:
        vector = _thread_invariant_vector(machine, thread, cache)
        if vector is not _CLEAN_VECTOR:
            clean = False
        vectors.append(vector)
    if clean:
        return []
    violations: List[str] = []
    for index in range(len(ALL_GLOBAL_INVARIANTS)):
        for vector in vectors:
            violations.extend(vector[index])
    base = len(ALL_GLOBAL_INVARIANTS)
    for vector in vectors:
        for index in range(base, len(_PER_THREAD_CHECKERS)):
            violations.extend(vector[index])
    return violations
