"""Exhaustive small-scope exploration of the PUSH/PULL machine.

:func:`explore` enumerates *every* interleaving of *every* enabled rule
instance — including the backward rules UNAPP/UNPUSH/UNPULL, which is what
distinguishes this from a mere scheduler sweep: the paper's invariants are
specifically engineered to be closed under rewinding, and the checker
exercises exactly those rewinding paths.

States are memoised on payload-level keys (operation ids are abstracted),
so APP/UNAPP cycles revisit old states and the reachable space is finite
for loop-free programs.

Checked properties (all optional, see :class:`ExploreOptions`):

* the §5.3 invariants (``I_LG``, ``I_slideR``, ``I_reorderPUSH``,
  ``I_localOrder``, ``I_slidePushed``, ``I_chronPush``,
  ``I_localReorder``) on every reached state;
* the commit-preservation invariant of §5.4 (expensive; tiny scopes only);
* **the simulation of Theorem 5.17**: at every state whose exploration
  terminated (final — all threads finished — or stuck), the committed
  global log is covered (``≼``) by some atomic-machine execution of the
  set of transactions that committed along the path;
* the opaque-fragment restriction (§6.1): ``pull_policy="committed"``
  prunes PULLs of uncommitted entries.  The restriction only shapes the
  explored space; opacity itself is judged only by the terminal-state
  oracle that ``opacity_checker`` selects.
"""

from __future__ import annotations

import gc
import re
from dataclasses import dataclass, field
from typing import Container, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.atomic import atomic_final_logs, payloads
from repro.core.errors import SerializabilityViolation
from repro.core.invariants import check_all_invariants_cached
from repro.core.language import Code
from repro.core.machine import Machine
from repro.core.ops import IdGenerator, Op
from repro.core.precongruence import precongruent
from repro.core.rewind import check_cmtpres_all
from repro.core.spec import SequentialSpec
from repro.checking.reduction import Reducer
from repro.obs.tracer import (
    CAT_CRITERION,
    CAT_MC,
    CAT_POR,
    CAT_RULE,
    NULL_TRACER,
    Tracer,
)


@dataclass
class ExploreOptions:
    include_backward: bool = True
    check_invariants: bool = True
    check_cmtpres: bool = False
    check_atomic_cover: bool = True
    check_every_state_cover: bool = False
    #: "all" — PULL any global entry (the full model; state count grows
    #: with the permutations of pull interleavings, so keep scopes tiny);
    #: "committed" — the opaque fragment's PULLs only; "none" — disable
    #: PULL entirely (adequate for checking the push-side rules).
    pull_policy: str = "all"
    #: Finiteness cut.  The raw model's reachable space is *infinite*:
    #: APP/UNAPP cycles mint fresh ids for the same payload, and a thread
    #: may PULL each incarnation, accumulating unboundedly many dangling
    #: ``pld`` entries.  Bounding the number of simultaneously held pulled
    #: entries per thread restores finiteness while keeping every
    #: behaviour in which pulls are actually consumed.  ``None`` ⇒ use the
    #: total number of method occurrences across the scope's programs.
    max_pulled_per_thread: Optional[int] = None
    #: run the machine with the paper's gray criteria disabled — the
    #: experiment behind the paper's "not strictly necessary" remarks:
    #: the §5.3 *mover* invariants may fail without them, but the
    #: simulation (serializability) must still hold.
    check_gray_criteria: bool = True
    max_states: int = 100_000
    bigstep_fuel: int = 12
    #: observability: exploration statistics (states / frontier / dedup
    #: hits / depth) are emitted as ``mc`` counter events on this tracer
    #: every ``trace_stats_every`` visited states and once at the end.
    tracer: Tracer = NULL_TRACER
    trace_stats_every: int = 1000
    #: additionally trace every rule instance the exploration expands
    #: (very high volume — one ``rule`` span and one ``<RULE>.check``
    #: instant per non-END transition); off by default even when a tracer
    #: is given.
    trace_rules: bool = False
    #: mover-guided partial-order reduction (see ``checking/reduction.py``):
    #: visited-state keys are quotiented by both-mover trace equivalence
    #: (and thread symmetry, when applicable), and states where one
    #: thread's enabled moves are all thread-local are expanded through
    #: that thread alone.  Verdicts and violation witnesses are identical
    #: to the unreduced run — only state/transition counts shrink.
    por: bool = True
    #: extend the quotient to thread-permutation symmetry for scopes whose
    #: threads run syntactically identical programs (no-op otherwise).
    por_symmetry: bool = True
    #: opacity oracle over terminal states (final and stuck): ``None`` —
    #: off; ``"tms2"`` — the TMS2 linearizability decision
    #: (:func:`repro.checking.tms2.decide_history`)
    opacity_checker: Optional[str] = None
    #: commits up to which the TMS2 decision is exhaustive (past it, the
    #: commit-order witness alone decides)
    opacity_bound: int = 8

    def __post_init__(self) -> None:
        if self.opacity_checker not in (None, "tms2"):
            raise ValueError(
                f"unknown opacity checker {self.opacity_checker!r} "
                "(expected 'tms2' or None)"
            )


@dataclass
class ExplorationReport:
    states: int = 0
    transitions: int = 0
    final_states: int = 0
    stuck_states: int = 0
    #: successor keys already in the visited set (memoisation effectiveness)
    dedup_hits: int = 0
    #: deepest rule chain from the initial state along the DFS tree
    max_depth: int = 0
    #: high-water mark of the DFS stack
    peak_frontier: int = 0
    rule_counts: Dict[str, int] = field(default_factory=dict)
    invariant_violations: List[str] = field(default_factory=list)
    cover_violations: List[str] = field(default_factory=list)
    cmtpres_violations: List[str] = field(default_factory=list)
    #: opacity-oracle findings over terminal states (only populated when
    #: ``ExploreOptions.opacity_checker`` is set)
    opacity_violations: List[str] = field(default_factory=list)
    #: terminal states the opacity oracle examined
    opacity_terminals: int = 0
    #: whether the mover-guided reduction was active for this run
    por: bool = False
    #: states at which the ample filter expanded a single thread
    ample_hits: int = 0
    #: thread expansions skipped by the ample filter (deferred, not lost:
    #: they are re-explored from the ample chain's fully expanded end)
    ample_deferred: int = 0
    #: states expanded in full while the reduction was active
    full_expansions: int = 0
    #: path of the flight-recorder dump written for a failed verdict
    #: (``None`` when the run was clean or no flight recorder was armed)
    flight_dump: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not (
            self.invariant_violations
            or self.cover_violations
            or self.cmtpres_violations
            or self.opacity_violations
        )


_OP_ID = re.compile(r"#\d+")


def normalize_witness(message: str) -> str:
    """A violation message with operation ids (``#n``) blanked.

    Ids record mint order, which depends on the path that first reached
    the witness (POR-on and POR-off runs walk different paths, so they
    mint different ids) while the payload content of the witness does
    not — so verdict comparisons go through this."""
    return _OP_ID.sub("#·", message)


def verdict_fingerprint(report: "ExplorationReport") -> Tuple:
    """The order- and id-insensitive verdict of a run: ``ok`` plus the
    sorted sets of normalized violation witnesses.  This is the equality
    the POR-identity gate, the benchmarks and the tests compare — state
    and transition counts are deliberately excluded (the quotient merges
    terminals, so a POR-on run reaches fewer of them)."""
    return (
        report.ok,
        tuple(sorted({normalize_witness(m) for m in report.invariant_violations})),
        tuple(sorted({normalize_witness(m) for m in report.cover_violations})),
        tuple(sorted({normalize_witness(m) for m in report.cmtpres_violations})),
        tuple(sorted({normalize_witness(m) for m in report.opacity_violations})),
    )


@dataclass
class _Node:
    machine: Machine
    committed: Tuple[int, ...]  # tids of committed threads, in commit order
    #: each committed thread's own operations, captured at its CMT (the
    #: machine clears the local log on commit, so this is the only record
    #: of which operations formed which transaction — the association the
    #: terminal-state opacity oracle needs).  Parallel to ``committed``;
    #: path-dependent bookkeeping, deliberately NOT part of the state key.
    committed_ops: Tuple[Tuple[Op, ...], ...] = ()

    def key(self) -> Tuple:
        return (self.machine.state_key(), self.committed)


def _successors(
    node: _Node,
    options: ExploreOptions,
    seen: Container[Tuple] = frozenset(),
    reducer: Optional[Reducer] = None,
) -> List[Tuple[str, Tuple, Optional[_Node]]]:
    """Enabled rule instances as ``(rule, node_key, successor)`` triples,
    in :meth:`Machine.successor_plan`'s order, thread by thread.

    Keys come first: each instance's canonical key is derived from this
    state's key by :meth:`Machine.successor_keys` (and quotiented by the
    reducer, if any), and the successor is only constructed (via the
    matching ``*_state``) when that key is not in ``seen`` (the checker's
    visited-key set; empty by default, so direct callers get every
    successor built).  Most transitions in an exhaustive exploration
    revisit states — backward moves almost always do — so this skips
    most successor construction outright; an already-seen instance comes
    back with successor ``None``: it still counts as a transition, there
    is just no state to push.  ``seen`` is only read here; ``explore``
    mutates it strictly after this returns.

    When the machine's tracer is enabled (``trace_rules``), each non-END
    instance is recorded as one ``rule`` span and one passing
    ``<RULE>.check`` instant.  The span covers only the ``*_state``
    construction, so it opens and closes at once for an already-seen key
    and no key derivation or reducer query nests under it.
    """
    machine = node.machine
    committed = node.committed
    committed_ops = node.committed_ops
    canon = reducer.canonical if reducer is not None else None
    tracer = machine.tracer
    tracing = tracer.enabled
    pull_active = options.pull_policy != "none"
    pull_committed_only = options.pull_policy == "committed"
    pull_budget = options.max_pulled_per_thread
    out: List[Tuple[str, Tuple, Optional[_Node]]] = []
    emit = out.append
    threads = machine.threads
    if (
        reducer is not None
        and reducer.ample
        and options.include_backward
        and len(threads) > 1
    ):
        ample = reducer.ample_tid(
            machine,
            pull_allowed=pull_active,
            pull_committed_only=pull_committed_only,
            pull_budget=pull_budget,
        )
        if ample is not None:
            threads = tuple(t for t in threads if t.tid == ample)
    for thread in threads:
        tid = thread.tid
        if thread.done:
            # A finished transaction {skip, σ, []} only leaves (MS_END);
            # letting it PULL or re-CMT would manufacture spurious states.
            end_skey = machine.end_key(tid)
            nkey = (end_skey, committed)
            if canon is not None:
                nkey = canon(nkey)
            emit((
                "END",
                nkey,
                None if nkey in seen else _Node(
                    machine.end_state(tid, end_skey), committed, committed_ops
                ),
            ))
            continue
        for rule, arg, skey in machine.successor_keys(
            tid,
            options.include_backward,
            pull_active,
            pull_committed_only,
            pull_budget,
        ):
            if rule == "CMT":
                comm = committed + (tid,)
                comm_ops = committed_ops + (thread.local.own_ops(),)
            else:
                comm = committed
                comm_ops = committed_ops
            nkey = (skey, comm)
            if canon is not None:
                nkey = canon(nkey)
            if tracing:
                start = tracer.now()
            if nkey in seen:
                state = None
            elif rule == "UNPULL":
                state = machine.unpull_state(tid, arg, skey)
            elif rule == "UNPUSH":
                state = machine.unpush_state(tid, arg, skey)
            elif rule == "PUSH":
                state = machine.push_state(tid, arg, skey)
            elif rule == "APP":
                state = machine.app_state(tid, arg, skey)
            elif rule == "PULL":
                state = machine.pull_state(tid, arg, skey)
            elif rule == "CMT":
                state = machine.cmt_state(tid, skey)
            else:  # UNAPP
                state = machine.unapp_state(tid, skey)
            if tracing:
                tracer.span(rule, CAT_RULE, start, tid=tid, args={"ok": True})
                tracer.instant(
                    f"{rule}.check", CAT_CRITERION, tid=tid, args={"ok": True}
                )
            emit((
                rule,
                nkey,
                None if state is None else _Node(state, comm, comm_ops),
            ))
    return out


def explore(
    spec: SequentialSpec,
    programs: Sequence[Code],
    options: Optional[ExploreOptions] = None,
) -> ExplorationReport:
    """Exhaustively explore all interleavings of ``programs`` (one
    transaction per thread) and check the requested properties.

    Automatic cyclic garbage collection is paused for the whole call and
    the caller's thresholds are restored on every exit.  The exploration
    only adds to structures that live as long as it does (the visited
    set, the frontier, the kernel memos) and creates no reference cycles,
    so the collector would only rescan a growing heap with nothing to
    free, while refcounting still frees everything else at once.  The
    pause lowers the generation-0 threshold rather than calling
    ``gc.disable()``, whose process-wide flag other threads may toggle.
    """
    saved = gc.get_threshold()
    gc.set_threshold(0, *saved[1:])
    try:
        return _explore(spec, programs, options or ExploreOptions())
    finally:
        gc.set_threshold(*saved)


def _explore(
    spec: SequentialSpec, programs: Sequence[Code], options: ExploreOptions
) -> ExplorationReport:
    if options.max_pulled_per_thread is None:
        from repro.core.language import methods_of

        total_methods = sum(len(methods_of(p)) for p in programs)
        options = ExploreOptions(**{
            **options.__dict__,
            "max_pulled_per_thread": total_methods,
        })
    report = ExplorationReport()
    tracer = options.tracer
    machine = Machine(
        spec,
        check_gray_criteria=options.check_gray_criteria,
        tracer=tracer if options.trace_rules else NULL_TRACER,
    )
    tids = []
    for program in programs:
        machine, tid = machine.spawn(program)
        tids.append(tid)
    program_of = {tid: prog for tid, prog in zip(tids, programs)}

    reducer: Optional[Reducer] = None
    if options.por:
        reducer = Reducer(
            spec,
            programs=tuple(zip(tids, programs)),
            symmetry=options.por_symmetry,
            tracer=tracer,
            movers=machine.movers,
        )

    initial = _Node(machine, (), ())
    seen: Set[Tuple] = {
        reducer.canonical(initial.key()) if reducer else initial.key()
    }
    stack: List[Tuple[_Node, int]] = [(initial, 0)]
    cover_cache: Dict[FrozenSet[int], FrozenSet] = {}
    # Per-thread invariant memo (see check_all_invariants_cached): §5.3
    # clauses depend on one thread's logs plus G, so the sweep is shared
    # across the many product states in which that configuration recurs.
    invariant_cache: Dict[Tuple, Tuple] = {}

    # Exploration stats tracked in locals (attribute stores per visited
    # state are measurable at 400k-state scopes); folded into the report
    # after the loop.
    tracing = tracer.enabled
    max_depth = 0
    dedup_hits = 0
    peak_frontier = 1
    states = 0
    transitions = 0
    stuck_states = 0
    final_states = 0
    rule_counts = report.rule_counts
    max_states = options.max_states
    check_invariants = options.check_invariants
    check_cmtpres = options.check_cmtpres
    check_atomic_cover = options.check_atomic_cover
    check_every_state_cover = options.check_every_state_cover
    seen_add = seen.add
    stack_pop = stack.pop
    stack_append = stack.append
    while stack:
        node, depth = stack_pop()
        states += 1
        if depth > max_depth:
            max_depth = depth
        if states > max_states:
            report.states = states
            raise MemoryError(
                f"model checker exceeded {options.max_states} states"
            )
        if check_invariants:
            violations = check_all_invariants_cached(
                node.machine, invariant_cache
            )
            if violations:
                report.invariant_violations.extend(violations)
        if check_cmtpres:
            report.cmtpres_violations.extend(
                check_cmtpres_all(node.machine, fuel=options.bigstep_fuel)
            )
        successors = _successors(node, options, seen, reducer)
        transitions += len(successors)
        if not successors:
            if node.machine.threads:
                stuck_states += 1
            else:
                final_states += 1
            if check_atomic_cover:
                _check_cover(
                    spec, node, program_of, cover_cache, options, report
                )
            if options.opacity_checker is not None:
                _check_opacity(spec, node, options, report)
        elif check_atomic_cover and check_every_state_cover:
            _check_cover(
                spec, node, program_of, cover_cache, options, report
            )
        next_depth = depth + 1
        for rule, key, successor in successors:
            rule_counts[rule] = rule_counts.get(rule, 0) + 1
            if successor is not None and key not in seen:
                seen_add(key)
                stack_append((successor, next_depth))
            else:
                # Key-first probe matched a visited state, or a sibling
                # transition in this batch already claimed the key.
                dedup_hits += 1
        if len(stack) > peak_frontier:
            peak_frontier = len(stack)
        if tracing and states % options.trace_stats_every == 0:
            tracer.counter(
                "mc.explore",
                CAT_MC,
                {
                    "states": states,
                    "frontier": len(stack),
                    "dedup_hits": dedup_hits,
                    "depth": depth,
                },
            )
            if reducer is not None:
                tracer.counter(
                    "por.explore",
                    CAT_POR,
                    {
                        "ample_hits": reducer.ample_hits,
                        "ample_deferred": reducer.ample_deferred,
                        "full_expansions": reducer.full_expansions,
                    },
                )
    report.states = states
    report.transitions = transitions
    report.stuck_states = stuck_states
    report.final_states = final_states
    report.max_depth = max_depth
    report.dedup_hits = dedup_hits
    report.peak_frontier = peak_frontier
    if reducer is not None:
        report.por = True
        report.ample_hits = reducer.ample_hits
        report.ample_deferred = reducer.ample_deferred
        report.full_expansions = reducer.full_expansions
        reducer.emit_stats(tracer)
    if tracer.enabled:
        # Packed-kernel gauges, sampled once at end of run: intern-table
        # populations are process-wide; the recipe/plan memos live on the
        # exploration's root machine and are shared by reference with
        # every derived state.
        from repro.core.ops import intern_stats
        from repro.core.packed import packed_stats

        tracer.counter(
            "packed.kernel", CAT_MC, {**intern_stats(), **packed_stats(machine)}
        )
        tracer.instant(
            "mc.done",
            CAT_MC,
            args={
                "states": report.states,
                "transitions": report.transitions,
                "finals": report.final_states,
                "stuck": report.stuck_states,
                "dedup_hits": report.dedup_hits,
                "max_depth": report.max_depth,
                "peak_frontier": report.peak_frontier,
            },
        )
    if not report.ok:
        # A failed verdict ships its black box (no-op unless the tracer
        # is a flight recorder with a dump directory).
        from repro.obs.flight import maybe_dump

        report.flight_dump = maybe_dump(
            tracer,
            label=f"modelcheck-{type(spec).__name__}",
            reason="violation",
            meta={
                "states": report.states,
                "violations": len(report.invariant_violations)
                + len(report.cover_violations)
                + len(report.cmtpres_violations),
            },
        )
    return report


def _terminal_history(node: _Node):
    """A synthetic :class:`~repro.core.history.History` for one terminal
    state of the exploration.

    Committed transactions come from the node's commit order with the
    own-operation tuples captured at each CMT; threads still live at a
    stuck state become *active* viewer records whose observed view is
    their local log.  Every record begins before any ends, so the history
    carries no real-time precedence — honest for the checker, since the
    exploration spawns all threads up front and quantifies over every
    interleaving.
    """
    from repro.core.history import History

    history = History()
    machine = node.machine
    committed_recs = [history.begin(tid) for tid in node.committed]
    live = []
    for thread in machine.threads:
        if len(thread.local):
            live.append((thread, history.begin(thread.tid)))
    for record, ops in zip(committed_recs, node.committed_ops):
        history.commit(record, ops)
    global_log = machine.global_log
    for thread, record in live:
        record.observed = tuple(e.op for e in thread.local)
        dirty = []
        for e in thread.local:
            if e.is_pulled:
                entry = global_log.entry_for(e.op)
                if entry is None or not entry.is_committed:
                    dirty.append(e.op)
        record.pulled_uncommitted = tuple(dirty)
    return history


def _check_opacity(
    spec: SequentialSpec,
    node: _Node,
    options: ExploreOptions,
    report: ExplorationReport,
) -> None:
    """The terminal-state opacity oracle (``ExploreOptions.opacity_checker``):
    the TMS2 decision over this terminal state's synthetic history."""
    from repro.checking.tms2 import decide_history

    report.opacity_terminals += 1
    verdict = decide_history(
        spec, _terminal_history(node), max_exhaustive=options.opacity_bound
    )
    report.opacity_violations.extend(verdict.violations)


def _check_cover(
    spec: SequentialSpec,
    node: _Node,
    program_of: Dict[int, Code],
    cache: Dict[FrozenSet[int], FrozenSet],
    options: ExploreOptions,
    report: ExplorationReport,
) -> None:
    """Theorem 5.17 at this state: ``⌊G⌋_gCmt`` covered by an atomic run of
    the committed transactions.

    Coverage is checked in the *strong* (conventional) form: the atomic
    candidate must consist of the same operation payloads (method, args,
    **and return values**) as the committed log, up to reordering, and the
    committed log must be ``≼``-below it.  The paper's bare
    ``⌊G⌋_gCmt ≼ ℓ`` is implied but strictly weaker on its own: ``≼``
    compares future observability only, so e.g. a write-skew log — same
    final state as a serial run but reads nobody could have made serially
    — would slip through without the payload condition.
    """
    committed_ops = node.machine.global_log.committed_ops()
    committed_payloads = sorted(map(repr, payloads(committed_ops)))
    subset = frozenset(node.committed)
    if subset not in cache:
        cache[subset] = atomic_final_logs(
            spec,
            [program_of[tid] for tid in sorted(subset)],
            fuel=options.bigstep_fuel,
        )
    ids = IdGenerator(start=50_000_000)
    for payload_log in cache[subset]:
        if sorted(map(repr, payload_log)) != committed_payloads:
            continue
        candidate = tuple(
            Op(method, args, ret, ids.fresh())
            for method, args, ret in payload_log
        )
        if spec.allowed(candidate) and precongruent(
            spec, committed_ops, candidate, tracer=options.tracer
        ):
            return
    # The witness lists payloads in sorted order (not G order) so that the
    # message is an invariant of the both-mover trace class — POR-on and
    # POR-off runs report textually identical witnesses.
    report.cover_violations.append(
        f"committed log {committed_payloads} not covered by any atomic "
        f"run of committed transactions {sorted(subset)}"
    )


def check_serializability_small_scope(
    spec: SequentialSpec,
    programs: Sequence[Code],
    options: Optional[ExploreOptions] = None,
) -> ExplorationReport:
    """Run :func:`explore` and raise on any violation — the executable form
    of Theorem 5.17 for this scope."""
    report = explore(spec, programs, options)
    if report.invariant_violations:
        raise SerializabilityViolation(
            "invariant violations: " + "; ".join(report.invariant_violations[:5])
        )
    if report.cover_violations:
        raise SerializabilityViolation(
            "simulation violations: " + "; ".join(report.cover_violations[:5])
        )
    if report.cmtpres_violations:
        raise SerializabilityViolation(
            "cmtpres violations: " + "; ".join(report.cmtpres_violations[:5])
        )
    return report
