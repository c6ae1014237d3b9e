"""Partial rewind relations and the commit-preservation invariant (§5.4).

The commit-preservation invariant ``cmtpres`` is the heart of the paper's
simulation proof.  It must be *closed under rewinding* because the machine
is non-monotonic (UNAPP/UNPUSH/UNPULL move backwards), which the paper
handles with two auxiliary relations:

* the **self-rewind** ``{c,σ,L}, G ⟲self {'c,'σ,'L}, 'G`` (Definition 5.1)
  peels the thread's local log from the right — undoing unpushed entries
  (PRU), pushed-uncommitted entries together with their global-log record
  (PRM), skipping over pulled entries — and is reflexive;
* the **shared-log rewind** ``G ⟲L ''G`` drops any subset of *other*
  transactions' uncommitted operations from ``G``.

Both are enumerable on concrete states, so :func:`check_cmtpres` can test
Definition 5.2 directly (with the big-step runs bounded by ``fuel``): after
any drop of others' uncommitted work and any partial self-rewind, if the
rewound transaction could commit its pushed prefix and then finish
atomically, the resulting log is precongruence-covered by atomically
re-running the *whole* transaction from a log without any of its effects.

These checks are exponential in the number of uncommitted operations and
are meant for the model checker's small scopes (where they are exact).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, Optional, Tuple

from repro.core.atomic import bigstep, payloads
from repro.core.logs import GlobalLog, LocalLog, NotPushed, Pulled, Pushed
from repro.core.machine import Machine, Thread
from repro.core.ops import IdGenerator
from repro.core.precongruence import precongruent


def self_rewinds(
    thread: Thread, global_log: GlobalLog
) -> Iterator[Tuple[Thread, GlobalLog]]:
    """Enumerate ``⟲self`` (Definition 5.1): all partial rewinds of
    ``thread`` against ``global_log``, including the reflexive one (PRR).

    The relation peels local-log entries from the right:

    * PRU — last entry ``npshd 'c``: drop it, restore saved code/stack;
    * PRM — last entry ``pshd 'c`` whose global record is ``gUCmt``: drop
      both, restore saved code/stack;
    * pulled entries are passed over (dropped without code change).
    """
    yield thread, global_log  # PRR (reflexive)
    local = thread.local
    if len(local) == 0:
        return
    last = local[-1]
    if isinstance(last.flag, NotPushed):
        rewound = Thread(
            thread.tid,
            last.flag.saved_code,
            last.flag.saved_stack,
            local.drop_last(),
            thread.original_code,
            thread.original_stack,
        )
        yield from self_rewinds(rewound, global_log)
    elif isinstance(last.flag, Pushed):
        entry = global_log.entry_for(last.op)
        if entry is not None and not entry.is_committed:
            rewound = Thread(
                thread.tid,
                last.flag.saved_code,
                last.flag.saved_stack,
                local.drop_last(),
                thread.original_code,
                thread.original_stack,
            )
            yield from self_rewinds(rewound, global_log.remove(last.op))
    elif isinstance(last.flag, Pulled):
        rewound = Thread(
            thread.tid,
            thread.code,
            thread.stack,
            local.drop_last(),
            thread.original_code,
            thread.original_stack,
        )
        yield from self_rewinds(rewound, global_log)


def shared_rewinds(
    global_log: GlobalLog,
    local: LocalLog,
    spec=None,
    limit: Optional[int] = None,
) -> Iterator[GlobalLog]:
    """Enumerate ``⟲L``: drop any subset of uncommitted operations that are
    not in ``local`` (other transactions' tentative work).

    When ``spec`` is given, drops that leave a *disallowed* shared log are
    pruned.  The literal relation in the paper admits such junk logs (drop
    a write but keep a read depending on it); no machine execution can
    reach them — the owner's rollback must UNPUSH the dependent operation
    first, and UNPUSH criterion (ii) enforces it — and Lemma 5.15 (the
    ``I_⊆`` invariant) frames the rewinds as transitions of the machine
    itself, so the transition-reachable (allowed) drops are the intended
    quantification domain.  ``limit`` caps the droppable set.
    """
    local_ids = local.ids()
    droppable = [
        e.op
        for e in global_log
        if not e.is_committed and e.op.op_id not in local_ids
    ]
    if limit is not None:
        droppable = droppable[:limit]
    for r in range(len(droppable) + 1):
        for subset in combinations(droppable, r):
            candidate = global_log.minus(subset)
            if spec is not None and not spec.allowed(candidate.all_ops()):
                continue
            yield candidate


def otx(thread: Thread) -> Tuple:
    """``otx``: the transaction rewound to its original code and stack.

    As in the paper, the rewind target is recovered from the codes saved
    in the local log: the earliest *own* entry's ``npshd c``/``pshd c``
    flag recorded the code active when the transaction first APPlied, so
    its saved code/stack is the transaction's start.  A thread with no own
    entries (nothing applied, or already committed — ``L = []``) rewinds
    to its current code: ``otx({c, σ, []}) = (c, σ)``, which is what the
    CMT case of Lemma 5.16 relies on.
    """
    for entry in thread.local:
        flag = entry.flag
        if isinstance(flag, (NotPushed, Pushed)):
            return flag.saved_code, flag.saved_stack
    return thread.code, thread.stack


def check_cmtpres(
    machine: Machine,
    thread: Thread,
    fuel: int = 8,
    drop_limit: Optional[int] = None,
) -> List[str]:
    """Empirically check Definition 5.2 for ``thread`` in ``machine``.

    For every shared rewind ``''G`` (line 0) and self-rewind
    ``{'c,'σ,'L}, 'G`` (line 1): flip the rewound transaction's pushed
    operations to committed (``G_post``, line 2); for every atomic
    completion ``ℓ_a`` of the remaining code from
    ``G_post · ⌊'L⌋_npshd`` (line 3), some atomic run ``ℓ_b`` of the whole
    transaction from ``'G ∖ own('L)`` must cover it: ``ℓ_a ≼ ℓ_b``
    (line 4).

    Returns a list of violation descriptions (empty ⇒ invariant holds).
    """
    spec = machine.spec
    violations: List[str] = []
    ids = IdGenerator(start=10_000_000)
    for dropped in shared_rewinds(
        machine.global_log, thread.local, spec=spec, limit=drop_limit
    ):
        for r_thread, r_global in self_rewinds(thread, dropped):
            try:
                g_post = r_global.commit(r_thread.local)
            except Exception:  # pragma: no cover - I_LG violations surface elsewhere
                violations.append(
                    f"cmtpres: cmt() failed after rewind of thread {thread.tid}"
                )
                continue
            base_a = g_post.all_ops() + r_thread.local.not_pushed_ops()
            original_code, _ = otx(r_thread)
            base_b = tuple(
                op
                for op in r_global.minus(r_thread.local.own_ops()).all_ops()
            )
            completions_b = [
                base_b + suffix
                for suffix in bigstep(spec, original_code, base_b, ids, fuel)
            ]
            for suffix_a in bigstep(spec, r_thread.code, base_a, ids, fuel):
                l_a = base_a + suffix_a
                if not spec.allowed(l_a):
                    # A disallowed completion carries no observable content
                    # under ≼ (its first clause is vacuous); only allowed
                    # completions constrain the atomic side.
                    continue
                if not any(
                    precongruent(spec, l_a, l_b) for l_b in completions_b
                ):
                    violations.append(
                        "cmtpres: completion "
                        f"{payloads(l_a)} of thread {thread.tid} not covered "
                        "by any atomic re-run"
                    )
    return violations


def check_cmtpres_all(machine: Machine, fuel: int = 8) -> List[str]:
    """``cmtpres`` for every thread of ``machine``."""
    violations: List[str] = []
    for thread in machine.threads:
        violations.extend(check_cmtpres(machine, thread, fuel))
    return violations
