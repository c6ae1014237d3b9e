"""Sequential specifications (Parameter 3.1).

The PUSH/PULL model is parameterized by a *sequential specification*: a
prefix-closed predicate ``allowed ℓ`` on operation logs.  The paper expects
``allowed`` to be induced by a denotation ``[[op]] : P(State × State)`` with
``allowed ℓ ≡ ([[ℓ]] ≠ ∅)``; this module provides exactly that construction.

Two families are offered:

:class:`StateSpec`
    Deterministic functional specifications — one initial state and one
    transition per (state, method, args).  This covers every data type the
    paper's evaluation needs (memory, counter, set, map, queue, stack, bank
    accounts) and admits *exact* decision procedures for the precongruence
    ``≼`` and the mover relations (see :mod:`repro.core.precongruence`).

:class:`NondetSpec`
    Relational specifications (a set of initial states, a set of successor
    states per operation).  ``allowed`` remains decidable by forward
    exploration; ``≼`` falls back to bounded coinduction.

Both expose the same surface used by the machine:

* ``allowed(ops)``       — the predicate of Parameter 3.1;
* ``allows(ops, op)``    — ``ℓ allows op``, i.e. ``allowed (ℓ · op)``;
* ``result(ops, m, args)`` — the return value the specification assigns to
  invoking ``m(args)`` after replaying ``ops`` (used by TM drivers to give
  methods their post-stacks);
* mover oracles ``commutes`` / ``left_mover`` / ``right_mover`` used by the
  rule criteria.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.core.errors import SpecError
from repro.core.ops import Op, payload_class_id, payload_of
from repro.obs.tracer import CAT_MOVER, NULL_TRACER, Tracer


class SequentialSpec(ABC):
    """Abstract sequential specification.

    Subclasses must provide ``allowed`` (prefix-closed) and the mover
    oracles; everything else in the library is generic in the spec.
    """

    # -- the specification predicate ----------------------------------------

    @abstractmethod
    def allowed(self, ops: Sequence[Op]) -> bool:
        """The ``allowed ℓ`` predicate of Parameter 3.1 (prefix closed)."""

    def allows(self, ops: Sequence[Op], op: Op) -> bool:
        """``ℓ allows op  ≡  allowed (ℓ · op)``."""
        return self.allowed(tuple(ops) + (op,))

    # -- return-value synthesis ----------------------------------------------

    @abstractmethod
    def result(self, ops: Sequence[Op], method: str, args: Tuple[Any, ...]) -> Any:
        """The return value (post-stack) of ``method(args)`` after ``ops``.

        For nondeterministic specs any allowed return value may be chosen.
        Raises :class:`SpecError` if ``ops`` itself is not allowed.
        """

    # -- movers ----------------------------------------------------------------

    @abstractmethod
    def commutes(self, op1: Op, op2: Op) -> bool:
        """Whether ``op1`` and ``op2`` commute: in every context allowing
        one order, the other order is allowed and observationally equal.
        Commutativity implies both ``op1 ◁ op2`` and ``op2 ◁ op1``."""

    def left_mover(self, op1: Op, op2: Op) -> bool:
        """``op1 ◁ op2`` (Definition 4.1): for every log ``ℓ``,
        ``ℓ·op1·op2 ≼ ℓ·op2·op1``.

        The default is the sound under-approximation by commutativity;
        specifications with useful asymmetric movers override this.
        """
        return self.commutes(op1, op2)

    def right_mover(self, op1: Op, op2: Op) -> bool:
        """``op1 ▷ op2``: ``op1`` moves to the right of ``op2``, i.e.
        ``op2 ◁ op1``."""
        return self.left_mover(op2, op1)

    # -- pickling --------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The shared memos (see shared_movers) are keyed on process-local
        # payload-class ids: they mean nothing in another process, so a
        # spec pickled to a worker travels without them.
        state = dict(self.__dict__)
        state.pop(_MOVERS_ATTR, None)
        state.pop(_DENOTS_ATTR, None)
        return state

    # -- helpers for checkers ---------------------------------------------------

    def probe_ops(self) -> Iterable[Op]:
        """A finite set of operations used by bounded-coinduction checkers
        as the extension universe.  Empty by default (checkers then only
        compare at depth zero)."""
        return ()

    # -- abstract footprints (driver-level metadata) ----------------------------

    def footprint(self, method: str, args: Tuple[Any, ...]) -> frozenset:
        """The set of abstract keys ``method(args)`` may touch.

        Drivers use footprints for boosting's abstract locks, HTM conflict
        sets and relevance-based PULLing.  Soundness contract: two calls
        with disjoint footprints commute for *every* return value, and an
        operation's return value and state effect depend only on prior
        operations with intersecting footprints.
        """
        raise SpecError(f"{type(self).__name__} does not define footprints")

    def op_footprint(self, op: Op) -> frozenset:
        return self.footprint(op.method, op.args)

    def is_mutator(self, method: str) -> bool:
        """Whether ``method`` can change the state (pure observers return
        ``False``).  Drivers use this to prune relevance pulls."""
        raise SpecError(f"{type(self).__name__} does not classify mutators")

    def call_commutes(self, method: str, args: Tuple[Any, ...], op: Op) -> bool:
        """Conservative §6.1 judgement: does ``method(args)`` commute with
        ``op`` for *every* possible return value?  The default answers
        ``True`` exactly on disjoint footprints; specs with richer
        commutativity (e.g. counter mutators) override."""
        try:
            return self.footprint(method, args).isdisjoint(self.op_footprint(op))
        except SpecError:
            return False


class StateSpec(SequentialSpec):
    """Deterministic functional specification.

    Subclasses implement :meth:`initial_state` and :meth:`perform`; the
    denotational ``allowed`` and everything else is derived.  States must be
    hashable (frozen) values.
    """

    # -- to be provided by subclasses --------------------------------------

    @abstractmethod
    def initial_state(self) -> Any:
        """The (single) initial state ``I``."""

    @abstractmethod
    def perform(self, state: Any, method: str, args: Tuple[Any, ...]) -> Tuple[Any, Any]:
        """Execute ``method(args)`` in ``state``; return ``(ret, state')``.

        Must be total for every method the spec declares (raising
        :class:`SpecError` for unknown methods) — "disallowed" only ever
        means *the recorded return value disagrees with the state*.
        """

    # -- observational projection -------------------------------------------

    def observe(self, state: Any) -> Any:
        """Projection of a state onto its observable part.  The default is
        the identity; override to model unobservable state components (the
        paper's ``≼`` permits unobservable differences)."""
        return state

    # -- derived machinery -----------------------------------------------------

    def apply(self, state: Any, op: Op) -> Optional[Any]:
        """``[[op]]`` at ``state``: the successor state, or ``None`` if the
        recorded post-stack disagrees with the state (op not allowed here).
        """
        ret, new_state = self.perform(state, op.method, op.args)
        if ret != op.ret:
            return None
        return new_state

    def replay(self, ops: Sequence[Op]) -> Optional[Any]:
        """``[[ℓ]]`` from the initial state, or ``None`` if disallowed."""
        state = self.initial_state()
        for op in ops:
            state = self.apply(state, op)
            if state is None:
                return None
        return state

    def allowed(self, ops: Sequence[Op]) -> bool:
        return self.replay(ops) is not None

    def result(self, ops: Sequence[Op], method: str, args: Tuple[Any, ...]) -> Any:
        state = self.replay(ops)
        if state is None:
            raise SpecError("result() called on a disallowed log")
        ret, _ = self.perform(state, method, args)
        return ret

    # -- exact precongruence for deterministic specs -----------------------------

    def precongruent(self, l1: Sequence[Op], l2: Sequence[Op]) -> bool:
        """Exact ``ℓ1 ≼ ℓ2`` (Definition 3.1) for deterministic specs.

        With a single deterministic denotation, coinduction collapses to:
        either ``ℓ1`` is disallowed (then every extension of ``ℓ1`` is too,
        by prefix closure, so the greatest fixpoint holds vacuously), or
        ``ℓ2`` is allowed and the two final states are observationally
        equal (then both logs allow exactly the same extensions forever).
        """
        s1 = self.replay(l1)
        if s1 is None:
            return True
        s2 = self.replay(l2)
        if s2 is None:
            return False
        return self.observe(s1) == self.observe(s2)

    # -- mover checking on explicit state sets ------------------------------------

    def mover_states(self, op1: Op, op2: Op) -> Optional[Iterable[Any]]:
        """A finite set of states sufficient to decide movers for the pair,
        or ``None`` if the subclass instead overrides the oracles directly.
        """
        return None

    def _check_swap_on_state(self, state: Any, op1: Op, op2: Op) -> bool:
        """``ℓ·op1·op2 ≼ ℓ·op2·op1`` at one state ``[[ℓ]] = state``."""
        s_a = self.apply(state, op1)
        s_ab = self.apply(s_a, op2) if s_a is not None else None
        if s_ab is None:
            return True  # left side disallowed: vacuous
        s_b = self.apply(state, op2)
        s_ba = self.apply(s_b, op1) if s_b is not None else None
        if s_ba is None:
            return False
        return self.observe(s_ab) == self.observe(s_ba)

    def left_mover(self, op1: Op, op2: Op) -> bool:
        states = self.mover_states(op1, op2)
        if states is None:
            return self.commutes(op1, op2)
        return all(self._check_swap_on_state(s, op1, op2) for s in states)

    def commutes(self, op1: Op, op2: Op) -> bool:
        states = self.mover_states(op1, op2)
        if states is None:
            raise SpecError(
                f"{type(self).__name__} provides neither mover_states() nor "
                "a commutes() oracle"
            )
        return all(
            self._check_swap_on_state(s, op1, op2)
            and self._check_swap_on_state(s, op2, op1)
            for s in states
        )


class RebasedStateSpec(StateSpec):
    """``base`` started from a different initial state.

    Used by the runtime's log compaction: once every global-log entry is
    committed and no transaction is live, the log can be replayed into a
    new initial state and dropped, keeping ``allowed``-check costs bounded
    by per-transaction (not per-run) log lengths.  All behaviour except
    :meth:`initial_state` delegates to ``base`` — mover oracles quantify
    over all states, so they are unaffected by rebasing.
    """

    def __init__(self, base: StateSpec, state: Any):
        while isinstance(base, RebasedStateSpec):
            base = base.base
        self.base = base
        self._state = state

    def initial_state(self) -> Any:
        return self._state

    def perform(self, state, method, args):
        return self.base.perform(state, method, args)

    def observe(self, state):
        return self.base.observe(state)

    def mover_states(self, op1, op2):
        return self.base.mover_states(op1, op2)

    def left_mover(self, op1, op2):
        return self.base.left_mover(op1, op2)

    def commutes(self, op1, op2):
        return self.base.commutes(op1, op2)

    def probe_ops(self):
        return self.base.probe_ops()

    def footprint(self, method, args):
        return self.base.footprint(method, args)

    def is_mutator(self, method):
        return self.base.is_mutator(method)

    def call_commutes(self, method, args, op):
        return self.base.call_commutes(method, args, op)


class NondetSpec(SequentialSpec):
    """Relational (nondeterministic) specification.

    Subclasses implement :meth:`initial_states` and :meth:`apply_set`.
    ``allowed`` is non-emptiness of the forward image; ``≼`` has no exact
    shortcut and is handled by the bounded checker in
    :mod:`repro.core.precongruence`.
    """

    @abstractmethod
    def initial_states(self) -> FrozenSet[Any]:
        """The set ``I`` of initial states."""

    @abstractmethod
    def apply_set(self, state: Any, op: Op) -> FrozenSet[Any]:
        """``[[op]]`` at ``state``: the (possibly empty) successor set."""

    def observe(self, state: Any) -> Any:
        return state

    def denote(self, ops: Sequence[Op]) -> FrozenSet[Any]:
        states = self.initial_states()
        for op in ops:
            states = frozenset(s2 for s in states for s2 in self.apply_set(s, op))
            if not states:
                return frozenset()
        return states

    def allowed(self, ops: Sequence[Op]) -> bool:
        return bool(self.denote(ops))

    def result(self, ops: Sequence[Op], method: str, args: Tuple[Any, ...]) -> Any:
        raise SpecError(
            "NondetSpec cannot synthesise return values generically; "
            "override result() in the concrete specification"
        )

    def commutes(self, op1: Op, op2: Op) -> bool:
        raise SpecError(
            f"{type(self).__name__} must override commutes() (no generic "
            "decision procedure for relational specs)"
        )


class MemoizedMovers:
    """Memoising wrapper for a spec's mover oracles.

    Mover relations are functions of operation *payloads* (method, args,
    ret), not ids, so results are cached on payload-class pairs (the
    interned small-int ids of :func:`repro.core.ops.payload_class_id`).
    Machine criteria check movers against every concurrent operation,
    making this cache the difference between O(n) and O(n·cost-of-oracle)
    per step.

    One instance is intended to be shared per *spec* (see
    :func:`shared_movers`) so the machine criteria, the §5.3 invariant
    checkers and the bounded precongruence checkers all consult the same
    memo instead of re-deriving the relations per consumer.

    With an enabled tracer, cache hits/misses are aggregated as cheap
    counts (``mover.left.hit``/``.miss``, ``mover.commutes.hit``/``.miss``)
    and each actual oracle evaluation (a miss) becomes a ``mover`` span —
    oracle cost is a dominant machine expense, and this is where it
    becomes visible.
    """

    def __init__(self, spec: SequentialSpec, tracer: Tracer = NULL_TRACER):
        self.spec = spec
        self.tracer = tracer
        self._left: dict = {}
        self._comm: dict = {}

    def left_mover(self, op1: Op, op2: Op) -> bool:
        key = (payload_class_id(op1), payload_class_id(op2))
        if key in self._left:
            if self.tracer.enabled:
                self.tracer.count("mover.left.hit")
            return self._left[key]
        if not self.tracer.enabled:
            result = self._left[key] = self.spec.left_mover(op1, op2)
            return result
        self.tracer.count("mover.left.miss")
        start = self.tracer.now()
        result = self._left[key] = self.spec.left_mover(op1, op2)
        self.tracer.span(
            "left_mover",
            CAT_MOVER,
            start,
            args={"op1": op1.method, "op2": op2.method, "result": result},
        )
        return result

    def right_mover(self, op1: Op, op2: Op) -> bool:
        return self.left_mover(op2, op1)

    def left_mover_pid(self, pid1: int, pid2: int) -> bool:
        """``left_mover`` keyed directly on interned payload-class ids —
        the packed rule predicates scan integer columns and never hold an
        :class:`Op`; probe records are reconstructed from the intern table
        only on a memo miss."""
        got = self._left.get((pid1, pid2))
        if got is not None:
            if self.tracer.enabled:
                self.tracer.count("mover.left.hit")
            return got
        m1, a1, r1 = payload_of(pid1)
        m2, a2, r2 = payload_of(pid2)
        return self.left_mover(Op(m1, a1, r1, -1), Op(m2, a2, r2, -2))

    def commutes(self, op1: Op, op2: Op) -> bool:
        pid1, pid2 = payload_class_id(op1), payload_class_id(op2)
        key = (pid1, pid2) if pid1 <= pid2 else (pid2, pid1)
        if key in self._comm:
            if self.tracer.enabled:
                self.tracer.count("mover.commutes.hit")
            return self._comm[key]
        if not self.tracer.enabled:
            result = self._comm[key] = self.spec.commutes(op1, op2)
            return result
        self.tracer.count("mover.commutes.miss")
        start = self.tracer.now()
        result = self._comm[key] = self.spec.commutes(op1, op2)
        self.tracer.span(
            "commutes",
            CAT_MOVER,
            start,
            args={"op1": op1.method, "op2": op2.method, "result": result},
        )
        return result


# ---------------------------------------------------------------------------
# Cached denotations ``[[ℓ]]`` (the incremental kernel's parent-state cache)
# ---------------------------------------------------------------------------

#: cache sentinel for "this log is disallowed" (``[[ℓ]] = ∅``); distinct
#: from ``None`` so a legitimately-``None`` spec state can be cached.
_DISALLOWED = object()
_ABSENT = object()


class SpecDenotations:
    """Uncached pass-through denotation interface.

    The machine and the checkers talk to a *denotations* object with the
    surface ``allowed``/``allows``/``result``; this base simply delegates
    to the spec.  :class:`DenotationCache` (deterministic specs) and
    :class:`NondetDenotationCache` (relational specs) override with
    parent-state caching — :func:`denotations_for` picks the right one.
    """

    caching = False

    def __init__(self, spec: SequentialSpec, tracer: Tracer = NULL_TRACER):
        self.spec = spec
        self.tracer = tracer

    def allowed(self, ops: Sequence[Op]) -> bool:
        return self.spec.allowed(ops)

    def allows(self, ops: Sequence[Op], op: Op) -> bool:
        return self.spec.allows(ops, op)

    def result(self, ops: Sequence[Op], method: str, args: Tuple[Any, ...]) -> Any:
        return self.spec.result(ops, method, args)

    # -- log-keyed variants --------------------------------------------------
    #
    # The machine holds persistent log nodes that carry their own cached
    # payload key (``LocalLog.payload_key``); these entry points let caching
    # subclasses reuse that key instead of rebuilding it per query.  The
    # base class just unwraps to the ops-based surface.

    def allowed_log(self, log) -> bool:
        return self.allowed(log.all_ops())

    def allows_log(self, log, op: Op) -> bool:
        return self.allows(log.all_ops(), op)

    def allows_pid(self, log, pid: int) -> bool:
        """``allows_log`` keyed on an interned payload-class id — the
        packed rule predicates' entry point (no probe :class:`Op` needed
        by caching subclasses; this base reconstructs one)."""
        method, args, ret = payload_of(pid)
        return self.allows(log.all_ops(), Op(method, args, ret, -1))

    def result_log(self, log, method: str, args: Tuple[Any, ...]) -> Any:
        return self.result(log.all_ops(), method, args)

    def clear(self) -> None:
        pass


#: per-process source of denotation-cache tokens.  Each cache instance
#: gets a distinct small int and keys its per-log-node slots with it, so
#: slots of different caches (e.g. before/after a runtime log compaction
#: rebased the spec) can never alias — unlike ``id()``-based keys, which
#: the allocator may reuse after a cache is collected.
_CACHE_TOKENS = itertools.count()


class DenotationCache(SpecDenotations):
    """Parent-state caching of ``[[ℓ]]`` for deterministic specs.

    The denotation of a log depends only on its operation *payload*
    sequence, so states are cached on tuples of payload-class ids.  A
    query for ``ℓ·op`` walks back to the nearest cached prefix of ``ℓ``
    and applies only the missing suffix — for the machine's access
    pattern (one appended operation per step, criteria re-queried per
    probe) this turns every ``allowed``/``allows``/``result``/``≼`` check
    into a dictionary hit plus at most one ``[[op]]`` application, instead
    of a full replay from the initial state.

    Cache hits/misses are aggregated on the tracer as ``denot.hit`` /
    ``denot.miss`` (one miss per actual ``[[op]]`` application), the
    counters the kernel benchmark and the CI smoke job assert on.

    Resolved queries are also memoised in per-cache slots on the log
    node, and a slot must not outlive its cache.  A node normally dies
    with the machine states, hence the caches, that hold it; the empty
    logs are the exception: every thread starts from ``EMPTY_LOCAL`` and
    every machine from ``EMPTY_GLOBAL``, process-wide singletons, so slots
    parked there would keep every cache's results (per serve rollover, a
    rebased spec's whole state) alive for good.  All empty logs denote
    the same thing, so their slots live in the cache's own ``_empty``
    dict instead, picked by one inline length check per lookup.
    """

    caching = True

    #: clear the cache wholesale past this many cached states — a blunt
    #: but effective bound for unbounded runtime histories; model-checker
    #: scopes stay far below it.
    max_entries = 1 << 20

    def __init__(self, spec: StateSpec, tracer: Tracer = NULL_TRACER):
        super().__init__(spec, tracer)
        self._states: dict = {(): spec.initial_state()}
        # Per-log-node slot keys (see _CACHE_TOKENS).  The slot values are
        # pure functions of the log's payload sequence and the spec, so
        # clear() need not invalidate them — they stay correct, they just
        # stop being backed by ``_states``.
        token = next(_CACHE_TOKENS)
        self._slot = ("den", token)
        self._token = token
        # The slots of every empty log (see the class docstring).
        self._empty: dict = {}

    # -- the core lookup ---------------------------------------------------

    def state_of(self, ops: Sequence[Op]) -> Any:
        """``[[ℓ]]`` as a cached state, or :data:`_DISALLOWED`."""
        key = tuple(payload_class_id(op) for op in ops)
        states = self._states
        state = states.get(key, _ABSENT)
        if state is not _ABSENT:
            if self.tracer.enabled:
                self.tracer.count("denot.hit")
            return state
        return self._fill(ops, key)

    def _fill(self, ops: Sequence[Op], key: Tuple[int, ...]) -> Any:
        """Miss path: walk back to the nearest cached prefix of ``key`` and
        apply the missing suffix of ``ops``."""
        states = self._states
        if len(states) > self.max_entries:
            self.clear()
            states = self._states
        # Walk back to the nearest cached prefix (length ``plen``; the
        # empty prefix is always seeded, so the walk always lands)…
        plen = len(key) - 1
        while plen > 0:
            state = states.get(key[:plen], _ABSENT)
            if state is not _ABSENT:
                break
            plen -= 1
        else:
            state = states[()]
        # …then apply only the missing suffix, caching every new prefix.
        tracing = self.tracer.enabled
        spec = self.spec
        for position in range(plen, len(key)):
            if state is not _DISALLOWED:
                state = spec.apply(state, ops[position])
                if state is None:
                    state = _DISALLOWED
            states[key[: position + 1]] = state
            if tracing:
                self.tracer.count("denot.miss")
        return state

    def state_of_log(self, log) -> Any:
        """``[[ℓ]]`` keyed by the log node's cached payload key, with the
        resolved state stored in a per-cache slot *on the log node* — on
        revisits (the overwhelmingly common case: criteria re-probe the
        same immutable logs across states) the lookup is one dict hit with
        no payload-key tuple hash at all."""
        proj = log._proj if log._entries else self._empty
        if proj is None:
            proj = log._proj = {}
        slot = self._slot
        state = proj.get(slot, _ABSENT)
        if state is not _ABSENT:
            if self.tracer.enabled:
                self.tracer.count("denot.hit")
            return state
        key = log.payload_key()
        state = self._states.get(key, _ABSENT)
        if state is _ABSENT:
            state = self._fill(log.all_ops(), key)
        elif self.tracer.enabled:
            self.tracer.count("denot.hit")
        proj[slot] = state
        return state

    # -- the spec surface, from cached states ------------------------------

    def allowed(self, ops: Sequence[Op]) -> bool:
        return self.state_of(ops) is not _DISALLOWED

    def allows(self, ops: Sequence[Op], op: Op) -> bool:
        return self.state_of(tuple(ops) + (op,)) is not _DISALLOWED

    def allowed_log(self, log) -> bool:
        return self.state_of_log(log) is not _DISALLOWED

    def allows_log(self, log, op: Op) -> bool:
        return self.allows_pid(log, payload_class_id(op))

    def allows_pid(self, log, pid: int) -> bool:
        proj = log._proj if log._entries else self._empty
        if proj is None:
            proj = log._proj = {}
        akey = (self._token, pid)
        got = proj.get(akey)
        if got is not None:
            if self.tracer.enabled:
                self.tracer.count("denot.hit")
            return got is True
        key = log.payload_key() + (pid,)
        state = self._states.get(key, _ABSENT)
        if state is _ABSENT:
            method, args, ret = payload_of(pid)
            state = self._fill(log.all_ops() + (Op(method, args, ret, -1),), key)
        elif self.tracer.enabled:
            self.tracer.count("denot.hit")
        result = state is not _DISALLOWED
        proj[akey] = result
        return result

    def result(self, ops: Sequence[Op], method: str, args: Tuple[Any, ...]) -> Any:
        state = self.state_of(ops)
        if state is _DISALLOWED:
            raise SpecError("result() called on a disallowed log")
        ret, _ = self.spec.perform(state, method, args)
        return ret

    def result_log(self, log, method: str, args: Tuple[Any, ...]) -> Any:
        proj = log._proj if log._entries else self._empty
        if proj is None:
            proj = log._proj = {}
        rkey = ("res", self._token, method, args)
        got = proj.get(rkey, _ABSENT)
        if got is not _ABSENT:
            if got is _DISALLOWED:
                raise SpecError("result() called on a disallowed log")
            return got
        state = self.state_of_log(log)
        if state is _DISALLOWED:
            proj[rkey] = _DISALLOWED
            raise SpecError("result() called on a disallowed log")
        ret, _ = self.spec.perform(state, method, args)
        proj[rkey] = ret
        return ret

    def precongruent(self, l1: Sequence[Op], l2: Sequence[Op]) -> bool:
        """Exact ``ℓ1 ≼ ℓ2`` from cached states — same decision procedure
        as :meth:`StateSpec.precongruent`, minus the replays."""
        s1 = self.state_of(l1)
        if s1 is _DISALLOWED:
            return True
        s2 = self.state_of(l2)
        if s2 is _DISALLOWED:
            return False
        return self.spec.observe(s1) == self.spec.observe(s2)

    def clear(self) -> None:
        self._states = {(): self.spec.initial_state()}


class NondetDenotationCache(SpecDenotations):
    """Parent-set caching of ``[[ℓ]]`` for relational specs: the cached
    value is the (frozen) forward-image state set; ``allowed`` is its
    non-emptiness.  ``result`` stays delegated — relational specs override
    it per concrete type."""

    caching = True

    max_entries = 1 << 20

    def __init__(self, spec: NondetSpec, tracer: Tracer = NULL_TRACER):
        super().__init__(spec, tracer)
        self._states: dict = {(): frozenset(spec.initial_states())}
        token = next(_CACHE_TOKENS)
        self._slot = ("den", token)
        self._token = token
        # The slots of every empty log (see DenotationCache).
        self._empty: dict = {}

    def denote(self, ops: Sequence[Op]) -> FrozenSet[Any]:
        key = tuple(payload_class_id(op) for op in ops)
        states = self._states
        found = states.get(key, _ABSENT)
        if found is not _ABSENT:
            if self.tracer.enabled:
                self.tracer.count("denot.hit")
            return found
        return self._fill(ops, key)

    def denote_log(self, log) -> FrozenSet[Any]:
        proj = log._proj if log._entries else self._empty
        if proj is None:
            proj = log._proj = {}
        slot = self._slot
        found = proj.get(slot, _ABSENT)
        if found is not _ABSENT:
            if self.tracer.enabled:
                self.tracer.count("denot.hit")
            return found
        key = log.payload_key()
        found = self._states.get(key, _ABSENT)
        if found is _ABSENT:
            found = self._fill(log.all_ops(), key)
        elif self.tracer.enabled:
            self.tracer.count("denot.hit")
        proj[slot] = found
        return found

    def _fill(self, ops: Sequence[Op], key: Tuple[int, ...]) -> FrozenSet[Any]:
        states = self._states
        if len(states) > self.max_entries:
            self.clear()
            states = self._states
        plen = len(key) - 1
        while plen > 0:
            found = states.get(key[:plen], _ABSENT)
            if found is not _ABSENT:
                break
            plen -= 1
        else:
            found = states[()]
        tracing = self.tracer.enabled
        spec = self.spec
        for position in range(plen, len(key)):
            op = ops[position]
            if found:
                found = frozenset(
                    s2 for s in found for s2 in spec.apply_set(s, op)
                )
            states[key[: position + 1]] = found
            if tracing:
                self.tracer.count("denot.miss")
        return found

    def allowed(self, ops: Sequence[Op]) -> bool:
        return bool(self.denote(ops))

    def allows(self, ops: Sequence[Op], op: Op) -> bool:
        return bool(self.denote(tuple(ops) + (op,)))

    def allowed_log(self, log) -> bool:
        return bool(self.denote_log(log))

    def allows_log(self, log, op: Op) -> bool:
        return self.allows_pid(log, payload_class_id(op))

    def allows_pid(self, log, pid: int) -> bool:
        proj = log._proj if log._entries else self._empty
        if proj is None:
            proj = log._proj = {}
        akey = (self._token, pid)
        got = proj.get(akey)
        if got is not None:
            if self.tracer.enabled:
                self.tracer.count("denot.hit")
            return got is True
        key = log.payload_key() + (pid,)
        found = self._states.get(key, _ABSENT)
        if found is _ABSENT:
            method, args, ret = payload_of(pid)
            found = self._fill(log.all_ops() + (Op(method, args, ret, -1),), key)
        elif self.tracer.enabled:
            self.tracer.count("denot.hit")
        result = bool(found)
        proj[akey] = result
        return result

    def clear(self) -> None:
        self._states = {(): frozenset(self.spec.initial_states())}


def denotations_for(
    spec: SequentialSpec, tracer: Tracer = NULL_TRACER
) -> SpecDenotations:
    """The right denotations implementation for ``spec``."""
    if isinstance(spec, StateSpec):
        return DenotationCache(spec, tracer)
    if isinstance(spec, NondetSpec):
        return NondetDenotationCache(spec, tracer)
    return SpecDenotations(spec, tracer)


# ---------------------------------------------------------------------------
# Shared per-spec memo registry
# ---------------------------------------------------------------------------

#: instance attributes holding a spec's shared memos.  The memos live *on*
#: the spec rather than in a module-level weak-keyed map: each memo
#: references its spec, so a weak-keyed map would keep every key alive
#: forever, whereas a spec ↔ memo cycle is freed with the spec.
_MOVERS_ATTR = "_shared_movers"
_DENOTS_ATTR = "_shared_denots"


def _adopt_tracer(memo, tracer: Tracer):
    """Late-bind an enabled tracer onto an existing shared memo (first
    consumer may have been untraced)."""
    if tracer.enabled and not memo.tracer.enabled:
        memo.tracer = tracer
    return memo


def shared_movers(spec: SequentialSpec, tracer: Tracer = NULL_TRACER) -> MemoizedMovers:
    """The per-spec shared :class:`MemoizedMovers` memo.

    Mover relations depend only on the spec, so one memo per spec instance
    serves every machine, invariant checker and bounded checker touching
    it.  A :class:`RebasedStateSpec` forwards every mover query to its
    base, so it shares the base's memo: pairs evaluated before a log
    rollover stay hits after it.
    """
    if isinstance(spec, RebasedStateSpec):
        spec = spec.base
    memo = spec.__dict__.get(_MOVERS_ATTR)
    if memo is None:
        memo = spec.__dict__[_MOVERS_ATTR] = MemoizedMovers(spec, tracer=tracer)
        return memo
    return _adopt_tracer(memo, tracer)


def shared_denotations(
    spec: SequentialSpec, tracer: Tracer = NULL_TRACER
) -> SpecDenotations:
    """The per-spec shared denotations cache (see :func:`denotations_for`).
    Denotations depend on the initial state, so every rebased spec gets
    its own cache, freed with it."""
    memo = spec.__dict__.get(_DENOTS_ATTR)
    if memo is None:
        memo = spec.__dict__[_DENOTS_ATTR] = denotations_for(spec, tracer)
        return memo
    return _adopt_tracer(memo, tracer)
