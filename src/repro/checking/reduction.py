"""Mover-guided partial-order reduction for the model checker.

The paper's central oracle family — Lipton left/right movers over the log
precongruence ``≼`` (§4) — is exactly the independence relation a sound
partial-order reduction needs.  This module turns the memoized mover
oracles into a *state-space quotient* plus an *ample-set successor
filter*, both consumed by :func:`repro.checking.model_checker.explore`:

1. **Trace quotient** (:meth:`Reducer.canonical`).  Visited-state keys
   are mapped to the lexicographically least representative of their
   Mazurkiewicz trace class: the global log's rows are rewritten by
   :func:`repro.core.precongruence.trace_normal_form` under payload-level
   both-mover independence, and each thread's maximal runs of pulled
   (``pld``) entries are normalized the same way (own ``npshd``/``pshd``
   entries are fixed barriers — their order is the program/push order the
   §5.3 invariants constrain).  Both-mover adjacent swaps produce
   mutually-``≼`` logs in every context, every order-sensitive invariant
   clause and rule criterion is mover-guarded, and the Theorem 5.17 cover
   check reads only the committed payload *multiset* — so two states that
   differ by such swaps are verdict-equivalent and exploring one
   representative per class is sound (see DESIGN.md "Reduction").

2. **Thread-permutation symmetry.**  For scopes whose threads run
   identical programs, the key is additionally minimized over the
   permutations of each identical-program group (tids renamed in thread
   digests, the owner row, and the commit order).  The machine is fully
   symmetric in thread identity, so permuted states are bisimilar.

3. **Ample sets** (:meth:`Reducer.ample_tid`).  A thread whose enabled
   instances are *all* APP/UNAPP — with at least one APP — touches
   nothing any other thread can observe (APP/UNAPP read and write only
   the thread's own ``(c, σ, L)``, and no rule's criterion inspects
   another thread's local log), so
   the checker may expand only that thread's moves and defer the rest.
   Requiring an enabled APP gives deterministic progress: every maximal
   ample chain strictly consumes program text and ends in a fully
   expanded state, which rules out the ignoring problem without a
   seen-set proviso — the ample decision is a pure function of the state,
   so every run explores the *same* reduced graph.  The filter is applied
   only when backward rules are explored (``include_backward``): UNAPP
   chains from the fully expanded chain ends re-reach the deferred
   mid-chain configurations, preserving the per-thread invariant-witness
   coverage of the full graph.

Canonical keys stay packed, and every rank is an intern code: rows order
by their code, global items by ``(code, owner)``, and symmetry candidates
by their key tuples.  Intern codes are numbered in first-seen order, so
which member of a class is picked depends on the process, but any fixed
total order picks exactly one member per class.  The explorer reads
canonical keys only to test seen-set membership (it always expands the
first raw state it reaches), so state counts, transition counts and
verdicts do not depend on intern order (see DESIGN.md "Reduction").
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.language import Code
from repro.core.machine import Machine
from repro.core.ops import Op, payload_class_of, payload_of
from repro.core.packed import (
    PLD,
    pack_codes,
    pack_i32,
    pack_owners,
    unpack_codes,
    unpack_owners,
    unpack_tid_cs,
)
from repro.core.precongruence import trace_normal_form
from repro.core.spec import MemoizedMovers, SequentialSpec, shared_movers
from repro.obs.tracer import CAT_POR, NULL_TRACER, Tracer


#: the rules an ample thread may have enabled: they read and write only
#: the thread's own ``(c, σ, L)``, and no rule's criterion inspects
#: another thread's local log
_AMPLE_RULES = frozenset({"APP", "UNAPP"})


def _symmetry_perms(programs: Sequence[Tuple[int, Code]]) -> List[Dict[int, int]]:
    """Non-identity tid permutations respecting program identity.

    ``programs`` pairs each spawned tid with its *original* program; tids
    are interchangeable only within groups running syntactically equal
    programs.  Returns the non-trivial permutations as tid→tid maps (the
    identity is implicit — the caller always keeps the unpermuted
    candidate), or ``[]`` when every group is a singleton.
    """
    groups: Dict[str, List[int]] = {}
    for tid, program in programs:
        groups.setdefault(repr(program), []).append(tid)
    swappable = [sorted(tids) for tids in groups.values() if len(tids) > 1]
    if not swappable:
        return []
    perms: List[Dict[int, int]] = [{}]
    for tids in swappable:
        extended: List[Dict[int, int]] = []
        for image in permutations(tids):
            mapping = dict(zip(tids, image))
            for base in perms:
                extended.append({**base, **mapping})
        perms = extended
    return [p for p in perms if any(k != v for k, v in p.items())]


class Reducer:
    """Canonicalization and ample-set decisions for one exploration.

    Stateful only in its caches and counters; within one process,
    :meth:`canonical` and :meth:`ample_tid` are pure functions of their
    arguments, which is what makes the reduction reproducible.
    """

    def __init__(
        self,
        spec: SequentialSpec,
        programs: Sequence[Tuple[int, Code]] = (),
        symmetry: bool = True,
        ample: bool = True,
        tracer: Tracer = NULL_TRACER,
        movers: Optional[MemoizedMovers] = None,
    ) -> None:
        self.spec = spec
        self.movers = movers or shared_movers(spec)
        self.ample = ample
        self.perms = _symmetry_perms(programs) if symmetry else []
        self.tracer = tracer
        # Both-mover verdict per payload-class pair; symmetric, so both
        # orientations are stored per query.
        self._commute: Dict[Tuple[int, int], bool] = {}
        # Thread-key bytes → canonical thread-key bytes.
        self._t_memo: Dict[bytes, bytes] = {}
        # (global codes, owner row) → canonical pair.  G changes on a
        # minority of transitions, so this memo carries most states.
        self._g_memo: Dict[Tuple[bytes, bytes], Tuple[bytes, bytes]] = {}
        # Symmetry: pre-symmetry canonical key → least member of its
        # class.
        self._orbit_memo: Dict[Tuple, Tuple] = {}
        # Packed node key → packed canonical key.  The checker calls
        # :meth:`canonical` once per emitted transition and most states are
        # revisited, so this front memo answers most calls with one lookup
        # (bytes keys hash once — CPython caches ``bytes.__hash__``).
        self._canon_cache: Dict[Tuple, Tuple] = {}
        # Counters folded into the report / `por.*` trace stream.
        self.ample_hits = 0
        self.ample_deferred = 0
        self.full_expansions = 0
        self.t_cache_misses = 0
        self.g_cache_misses = 0
        self.sym_minimizations = 0

    # ------------------------------------------------------------- movers

    def _payloads_commute(self, pid1: int, pid2: int) -> bool:
        """Both-mover check on two payload classes.

        Probe records carry sentinel ids (never stored); the underlying
        memo is keyed on payload classes, so repeats are dictionary hits.
        """
        key = (pid1, pid2)
        got = self._commute.get(key)
        if got is None:
            op1 = Op(*payload_of(pid1), -1)
            op2 = Op(*payload_of(pid2), -2)
            got = self.movers.commutes(op1, op2)
            self._commute[key] = got
            self._commute[(pid2, pid1)] = got
        return got

    def _rows_commute(self, row1: Tuple, row2: Tuple) -> bool:
        """:meth:`_payloads_commute` on id-free rows ``(method, args, ret)``."""
        return self._payloads_commute(
            payload_class_of(*row1), payload_class_of(*row2)
        )

    def _local_commute(self, code1: int, code2: int) -> bool:
        """Independence of two local-row codes ``(payload_class << 2) | kind``.

        Own entries (``npshd``/``pshd``) never commute with each other,
        whatever their payloads: their relative order is *data* — the
        program order I_localOrder checks and the push order I_chronPush
        checks — not an artifact of interleaving, so rewriting it could
        manufacture or mask violations.  Every other pair (pld/pld and
        pld/own) reorders freely when the payloads are both-movers: the
        swapped logs are mutually ``≼`` in every context, and every
        order-sensitive clause or criterion cites a non-commuting pair,
        whose relative order the trace normal form preserves."""
        if code1 & 3 != PLD and code2 & 3 != PLD:
            return False
        return self._payloads_commute(code1 >> 2, code2 >> 2)

    def _global_commute(self, item1: Tuple[int, int], item2: Tuple[int, int]) -> bool:
        """Independence of two ``(global row code, owner)`` items."""
        return self._payloads_commute(item1[0] >> 1, item2[0] >> 1)

    # ----------------------------------------------------- canonical keys

    def _canon_thread(self, tkey: bytes) -> bytes:
        """A packed thread key with its local log in trace normal form
        under :meth:`_local_commute`: pulled entries slide into canonical
        position among themselves and past commuting own entries, so the
        PULL-permutation blowup collapses to one representative per
        thread-local trace class.  Own entries never commute with each
        other, so a key with no pld entry is its own canonical form."""
        got = self._t_memo.get(tkey)
        if got is None:
            self.t_cache_misses += 1
            # thread key = pack("<ii", tid, code_state_id) + local codes
            codes = unpack_codes(tkey[8:])
            got = tkey
            if any(code & 3 == PLD for code in codes):
                got = tkey[:8] + pack_codes(
                    trace_normal_form(codes, self._local_commute)
                )
            self._t_memo[tkey] = got
        return got

    def _canon_log(self, gpacked: bytes, opacked: bytes) -> Tuple[bytes, bytes]:
        """Trace normal form of G's ``(row code, owner)`` sequence."""
        key = (gpacked, opacked)
        got = self._g_memo.get(key)
        if got is None:
            self.g_cache_misses += 1
            items = trace_normal_form(
                tuple(zip(unpack_codes(gpacked), unpack_owners(opacked))),
                self._global_commute,
            )
            got = (
                pack_codes(code for code, _ in items),
                pack_owners(owner for _, owner in items),
            )
            self._g_memo[key] = got
        return got

    def _minimize(self, nkey: Tuple) -> Tuple:
        """The least member of ``nkey``'s thread-permutation class.

        Every candidate is itself a pre-symmetry canonical key of the
        same class — the program-preserving permutations form a group,
        and renaming tids maps trace classes to trace classes — so the
        whole class is memoized to the winner after one minimization.
        """
        got = self._orbit_memo.get(nkey)
        if got is not None:
            return got
        self.sym_minimizations += 1
        (tkeys, gpacked, opacked), committed = nkey
        tids = [unpack_tid_cs(tkey[:8])[0] for tkey in tkeys]
        owners = unpack_owners(opacked)
        candidates = [nkey]
        for perm in self.perms:
            renamed = sorted(
                (perm.get(tid, tid), tkey[4:]) for tid, tkey in zip(tids, tkeys)
            )
            candidates.append((
                (
                    tuple(pack_i32(tid) + tail for tid, tail in renamed),
                    *self._canon_log(
                        gpacked, pack_owners(perm.get(o, o) for o in owners)
                    ),
                ),
                tuple(sorted(perm.get(tid, tid) for tid in committed)),
            ))
        best = min(candidates)
        for candidate in candidates:
            self._orbit_memo[candidate] = best
        return best

    def canonical(self, nkey: Tuple) -> Tuple:
        """The canonical key of a packed checker node key
        ``(state_key, committed)``.

        Applies, in order: per-thread pld-run normalization, global-log
        trace normalization, and (when the scope has interchangeable
        threads) minimization over program-preserving tid permutations.
        Each works on the packed parts through its own memo, so a
        successor that changed one thread costs at most one thread-memo
        miss, and nothing is decoded.  The normal forms rank rows by
        intern code and candidates by their packed key tuples, so the
        representative is fixed within this process; equal states map to
        equal keys, which is all the seen set needs.
        """
        got = self._canon_cache.get(nkey)
        if got is not None:
            return got
        (tkeys, gpacked, opacked), committed = nkey
        # Commit *order* is bookkeeping only — every consumer (the
        # Theorem 5.17 cover check, the CLI reports) reads the committed
        # *set* — so CMT-order interleavings collapse to one key.
        skey = (
            tuple(map(self._canon_thread, tkeys)),
            *self._canon_log(gpacked, opacked),
        )
        got = (skey, tuple(sorted(committed)))
        if self.perms:
            got = self._minimize(got)
        self._canon_cache[nkey] = got
        return got

    # -------------------------------------------------------- ample sets

    def ample_tid(
        self,
        machine: Machine,
        pull_allowed: bool,
        pull_committed_only: bool,
        pull_budget: Optional[int],
    ) -> Optional[int]:
        """The tid whose moves form an ample set at this state, or ``None``
        for full expansion.

        Eligibility: the thread is unfinished and its
        :meth:`~repro.core.machine.Machine.successor_plan` (under the
        checker's PULL policy, backward rules included — the filter only
        runs when they are explored) has at least one APP instance (strict
        progress — ample chains terminate) and nothing but APP/UNAPP
        instances.  UNPULL writes only the local log, but it is not
        ample-eligible: its successor changes which PULLs are within
        budget, and an ample set must contain every enabled move of its
        thread.  The lowest eligible tid wins, making the choice a pure
        function of the state; the checker's own expansion of that thread
        then reuses the memoized plan.
        """
        for thread in machine.threads:
            if thread.done:
                continue
            tid = thread.tid
            rules = {
                instance[0]
                for instance in machine.successor_plan(
                    tid,
                    include_backward=True,
                    pull_active=pull_allowed,
                    pull_committed_only=pull_committed_only,
                    pull_budget=pull_budget,
                )
            }
            if "APP" not in rules or not rules <= _AMPLE_RULES:
                continue
            self.ample_hits += 1
            self.ample_deferred += sum(
                1 for other in machine.threads if other.tid != tid
            )
            return tid
        self.full_expansions += 1
        return None

    # ------------------------------------------------------ observability

    def emit_stats(self, tracer: Optional[Tracer] = None) -> Dict[str, int]:
        """The ``por.*`` counter snapshot; also emitted on ``tracer`` as a
        single ``por.stats`` counter event when tracing is enabled."""
        stats = {
            "por.ample_hits": self.ample_hits,
            "por.ample_deferred": self.ample_deferred,
            "por.full_expansions": self.full_expansions,
            "por.t_cache_misses": self.t_cache_misses,
            "por.g_cache_misses": self.g_cache_misses,
            "por.sym_minimizations": self.sym_minimizations,
            "por.canon_cache_size": len(self._canon_cache),
            "por.symmetry_perms": len(self.perms),
        }
        tracer = tracer or self.tracer
        if tracer.enabled:
            tracer.counter(
                "por.stats", CAT_POR, {k: float(v) for k, v in stats.items()}
            )
        return stats
