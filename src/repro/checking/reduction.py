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
   so sequential and work-stealing parallel runs explore the *same*
   reduced graph.  The filter is applied only when backward rules are
   explored (``include_backward``): UNAPP chains from the fully expanded
   chain ends re-reach the deferred mid-chain configurations, preserving
   the per-thread invariant-witness coverage of the full graph.

Everything here is payload-level and deterministic; no operation ids,
``id()`` values, or hashes enter the canonical keys, so keys agree across
processes (the parallel explorer's shared seen-set relies on this).
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.language import Code
from repro.core.machine import Machine
from repro.core.ops import Op
from repro.core.packed import (
    decode_global_rows,
    decode_thread_key,
    encode_node_key,
    unpack_owners,
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

    Stateful only in its caches and counters; :meth:`canonical` and
    :meth:`ample_tid` are pure functions of their arguments, which is what
    makes the reduction reproducible across runs and across the parallel
    explorer's workers.
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
        # Payload-level commutation of two id-free rows; symmetric, so both
        # orientations are stored per query.
        self._commute: Dict[Tuple, bool] = {}
        # (rows, owner_row) → canonical (rows, owner_row).  G changes on a
        # minority of transitions, so this cache carries most states.
        self._g_cache: Dict[Tuple, Tuple] = {}
        # flag_rows → flag_rows with pld runs normalized.
        self._l_cache: Dict[Tuple, Tuple] = {}
        # Packed node key → packed canonical key.  The checker calls
        # :meth:`canonical` once per emitted transition and most states are
        # revisited, so this front cache keeps the decode→normalize→encode
        # round-trip off the hot path (bytes keys hash once — CPython
        # caches ``bytes.__hash__``).
        self._canon_cache: Dict[Tuple, Tuple] = {}
        # Counters folded into the report / `por.*` trace stream.
        self.ample_hits = 0
        self.ample_deferred = 0
        self.full_expansions = 0
        self.g_cache_misses = 0
        self.canon_decodes = 0

    # ------------------------------------------------------------- movers

    def _rows_commute(self, row1: Tuple, row2: Tuple) -> bool:
        """Both-mover check on id-free payload rows ``(method, args, ret)``.

        Probe records carry sentinel ids (never stored); the underlying
        memo is keyed on payload classes, so repeats are dictionary hits.
        """
        key = (row1, row2)
        got = self._commute.get(key)
        if got is None:
            op1 = Op(row1[0], row1[1], row1[2], -1)
            op2 = Op(row2[0], row2[1], row2[2], -2)
            got = self.movers.commutes(op1, op2)
            self._commute[key] = got
            self._commute[(row2, row1)] = got
        return got

    # ----------------------------------------------------- canonical keys

    def _canon_global(self, rows: Tuple, owner_row: Tuple) -> Tuple:
        """Trace normal form of G's ``(payload_row, owner)`` sequence."""
        key = (rows, owner_row)
        got = self._g_cache.get(key)
        if got is not None:
            return got
        self.g_cache_misses += 1
        items = trace_normal_form(
            tuple(zip(rows, owner_row)),
            lambda a, b: self._rows_commute(a[0][:3], b[0][:3]),
            repr,
        )
        if items:
            crows, cowners = zip(*items)
            got = (tuple(crows), tuple(cowners))
        else:
            got = ((), ())
        self._g_cache[key] = got
        return got

    def _local_rows_commute(self, row1: Tuple, row2: Tuple) -> bool:
        """Independence of two local-log rows ``(method, args, ret, kind)``.

        Own entries (``npshd``/``pshd``) never commute with each other,
        whatever their payloads: their relative order is *data* — the
        program order I_localOrder checks and the push order I_chronPush
        checks — not an artifact of interleaving, so rewriting it could
        manufacture or mask violations.  Every other pair (pld/pld and
        pld/own) reorders freely when the payloads are both-movers: the
        swapped logs are mutually ``≼`` in every context, and every
        order-sensitive clause or criterion cites a non-commuting pair,
        whose relative order the trace normal form preserves."""
        if row1[3] != "pld" and row2[3] != "pld":
            return False
        return self._rows_commute(row1[:3], row2[:3])

    def _canon_local(self, flag_rows: Tuple) -> Tuple:
        """The trace normal form of a thread's local-log rows under
        :meth:`_local_rows_commute` — pulled entries slide into canonical
        position among themselves and past commuting own entries, so the
        PULL-permutation blowup collapses to one representative per
        thread-local trace class."""
        got = self._l_cache.get(flag_rows)
        if got is not None:
            return got
        got = trace_normal_form(flag_rows, self._local_rows_commute, repr)
        self._l_cache[flag_rows] = got
        return got

    def canonical(self, nkey: Tuple) -> Tuple:
        """The canonical key of a packed checker node key
        ``(state_key, committed)``.

        Applies, in order: per-thread pld-run normalization, global-log
        trace normalization, and (when the scope has interchangeable
        threads) minimization over program-preserving tid permutations.
        The normalization itself runs on the *decoded* object-level rows
        (intern ids are process-local and carry no payload order, so the
        packed codes can't be ranked directly); the result is re-encoded
        to a packed key.  Decode → normalize → encode is pure and
        payload-level — canonical keys of equal states agree across
        processes once digested through
        :func:`repro.checking.parallel.key_digest` (which decodes again).
        """
        got = self._canon_cache.get(nkey)
        if got is not None:
            return got
        self.canon_decodes += 1
        (ptkeys, gpacked, opacked), committed = nkey
        tkeys = tuple(decode_thread_key(tb) for tb in ptkeys)
        rows = decode_global_rows(gpacked)
        owner_row = tuple(unpack_owners(opacked))
        tkeys = tuple(
            (tid, code, stack, self._canon_local(frows))
            for tid, code, stack, frows in tkeys
        )
        rows, owner_row = self._canon_global(rows, owner_row)
        # Commit *order* is bookkeeping only — every consumer (the
        # Theorem 5.17 cover check, the CLI reports) reads the committed
        # *set* — so CMT-order interleavings collapse to one key.
        committed = tuple(sorted(committed))
        best = ((tkeys, rows, owner_row), committed)
        if self.perms:
            # Tids occur inside heterogeneous tuples, so candidates are
            # ranked by their (deterministic) repr rather than compared
            # structurally.
            best_rank = repr(best)
            for perm in self.perms:
                permuted_tkeys = tuple(
                    sorted(
                        ((perm.get(tk[0], tk[0]),) + tk[1:] for tk in tkeys),
                        key=lambda t: t[0],
                    )
                )
                powners = tuple(
                    perm.get(o, o) if o >= 0 else o for o in owner_row
                )
                prows, powners = self._canon_global(rows, powners)
                pcommitted = tuple(sorted(perm.get(t, t) for t in committed))
                cand = ((permuted_tkeys, prows, powners), pcommitted)
                rank = repr(cand)
                if rank < best_rank:
                    best, best_rank = cand, rank
        got = encode_node_key(best)
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
            "por.g_cache_misses": self.g_cache_misses,
            "por.g_cache_size": len(self._g_cache),
            "por.l_cache_size": len(self._l_cache),
            "por.canon_decodes": self.canon_decodes,
            "por.canon_cache_size": len(self._canon_cache),
            "por.symmetry_perms": len(self.perms),
        }
        tracer = tracer or self.tracer
        if tracer.enabled:
            tracer.counter(
                "por.stats", CAT_POR, {k: float(v) for k, v in stats.items()}
            )
        return stats
