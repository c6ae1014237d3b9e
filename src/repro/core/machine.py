"""The PUSH/PULL machine (§4, Figures 4–6).

Machine states are pairs ``T, G`` of a thread list and a global log.  Each
thread ``{c, σ, L}`` carries its remaining transaction body ``c``, a local
stack ``σ`` and a local log ``L``.  The seven rules of Figure 5 —

=========  ==================================================================
APP        speculatively apply a next method locally (``npshd``)
UNAPP      rewind the last unpushed local operation
PUSH       publish an unpushed operation to the global log (``gUCmt``)
UNPUSH     withdraw a pushed-but-uncommitted operation from the global log
PULL       import another transaction's published operation (``pld``)
UNPULL     discard a pulled operation (detangle)
CMT        atomically flip all own pushed operations to ``gCmt``
=========  ==================================================================

— are methods on :class:`Machine` that return the successor state.  Every
side-condition of Figure 5 is checked and failures raise
:class:`~repro.core.errors.CriterionViolation` with the rule name and the
paper's criterion numeral.  Criteria typeset in gray in the paper (not
strictly necessary for serializability) are checked when
``check_gray_criteria`` is set (the default), and skipped otherwise.

Machine states are immutable: steps construct new states, so histories of
states can be retained, hashed (model checker) and rewound (§5.4) freely.

The incremental kernel splits each rule into a *check* (``_check_RULE``,
returning ``None`` when the criteria hold and a zero-argument exception
factory otherwise) and a *construction*.  The rule methods run the check
and build the successor.  Enabledness has one derivation:
:meth:`Machine.successor_plan` runs the checks once per payload-level
thread configuration and memoizes every enabled instance, so the model
checker (:meth:`Machine.successor_keys`), its ample-set probe and
:meth:`Machine.enabled_rules` never execute a rule body under
``try/except`` nor allocate exceptions, successor logs or fresh
operation ids to learn what is enabled.  All ``allowed``/``allows``/
``result`` queries go through the spec's shared denotation cache
(:func:`~repro.core.spec.shared_denotations`) and all mover queries
through the shared per-spec memo (:func:`~repro.core.spec.shared_movers`).

Each machine thread runs a *single* transaction body (the paper's top-level
rules likewise pertain to "a thread performing a transaction ``tx c``");
drivers sequence multiple transactions by spawning threads.  The structural
rules of Figure 6 (NONDETL/NONDETR/LOOP/SEMI/SEMISKIP) are provided for
completeness via :meth:`Machine.structural_steps`, but APP/CMT already
resolve nondeterminism through ``step``/``fin`` exactly as the paper's APP
and CMT rules do.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import CriterionViolation, MachineError, SpecError
from repro.core.language import (
    Call,
    Choice,
    Code,
    Seq,
    Skip,
    SKIP,
    Star,
    Tx,
    fin,
    seq_cont,
    sorted_choices,
    step,
)
from repro.core.logs import (
    EMPTY_GLOBAL,
    EMPTY_LOCAL,
    GlobalLog,
    LocalLog,
    NotPushed,
    Pulled,
    Pushed,
    UNCOMMITTED,
)
from repro.core.ops import (
    IdGenerator,
    Op,
    code_state_id,
    payload_class_id,
    payload_class_of,
)
from repro.core.packed import (
    pack_i32,
    pack_owners,
    pack_tid_cs,
    pack_u32,
    unpack_codes,
    unpack_owners,
)
from repro.core.spec import (
    MemoizedMovers,
    SequentialSpec,
    SpecDenotations,
    shared_denotations,
    shared_movers,
)
from repro.obs.tracer import CAT_CRITERION, CAT_RULE, NULL_TRACER, Tracer

#: a check result — ``None`` (criteria hold) or a factory building the
#: exception the rule would raise.  Factories are only invoked on the rule
#: path, so the predicate path never pays for message formatting.
CheckResult = Optional[Callable[[], Exception]]

_UNSET = object()


def _criterion_instant(
    tracer: Tracer, rule_name: str, tid: int, exc: Optional[CriterionViolation] = None
) -> None:
    """The ``{RULE}.check`` instant: whether the rule's side-conditions
    held and, when they did not, which criterion failed."""
    args = {"ok": True} if exc is None else {
        "ok": False, "criterion": exc.criterion, "detail": exc.detail,
    }
    tracer.instant(f"{rule_name}.check", CAT_CRITERION, tid=tid, args=args)


def _new_entry(before: "Machine", after: "Machine", tid: int, args) -> Op:
    return after.thread(tid).local[-1].op


def _last_entry(before: "Machine", after: "Machine", tid: int, args) -> Op:
    return before.thread(tid).local[-1].op


def _argument(before: "Machine", after: "Machine", tid: int, args) -> Op:
    return args[0]


def _traced_rule(rule_name: str, moved: Optional[Callable[..., Op]] = None):
    """Instrument a Figure 5 rule method: a ``rule`` span per application
    (``ok`` false when a criterion refused it) and a ``criterion`` check
    instant.  A passing span carries the operation the rule moved as
    ``op = (method, args, ret)``, found by ``moved(before, after, tid,
    args)``; CMT moves none.  With the default disabled tracer the wrapper
    is one attribute load and one branch."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, tid, *args):
            tracer = self.tracer
            if not tracer.enabled:
                return fn(self, tid, *args)
            start = tracer.now()
            try:
                successor = fn(self, tid, *args)
            except CriterionViolation as exc:
                tracer.span(rule_name, CAT_RULE, start, tid=tid, args={"ok": False})
                _criterion_instant(tracer, rule_name, tid, exc)
                raise
            span_args = {"ok": True}
            if moved is not None:
                op = moved(self, successor, tid, args)
                span_args["op"] = (op.method, op.args, op.ret)
            tracer.span(rule_name, CAT_RULE, start, tid=tid, args=span_args)
            _criterion_instant(tracer, rule_name, tid)
            return successor

        return wrapper

    return decorate


@dataclass(frozen=True)
class Thread:
    """A machine thread ``{c, σ, L}`` plus bookkeeping identity.

    ``original_code``/``original_stack`` record the transaction as first
    submitted (the paper's ``otx``), used by rewind and by the simulation
    relation which maps threads back to un-started transactions.
    """

    tid: int
    code: Code
    stack: Any
    local: LocalLog
    original_code: Code
    original_stack: Any = None

    def own_op_ids(self) -> frozenset:
        """The ids of the thread's own operations, cached on the
        (immutable) thread — the PUSH criteria consult this per probe."""
        try:
            return self._ownids  # type: ignore[attr-defined]
        except AttributeError:
            pass
        own = frozenset(op.op_id for op in self.local.own_ops())
        object.__setattr__(self, "_ownids", own)
        return own

    def evolve(
        self, code: Optional[Code] = None, stack: Any = _UNSET, local: Optional[LocalLog] = None
    ) -> "Thread":
        """A copy with the given fields replaced (cheaper than
        ``dataclasses.replace`` on the rules' hot path)."""
        return Thread(
            self.tid,
            self.code if code is None else code,
            self.stack if stack is _UNSET else stack,
            self.local if local is None else local,
            self.original_code,
            self.original_stack,
        )

    @property
    def done(self) -> bool:
        return isinstance(self.code, Skip) and len(self.local) == 0


def _thread_key(thread: Thread) -> bytes:
    """The packed digest of a thread — ``pack("<ii", tid, code_state_id)``
    followed by the local log's packed row codes — cached on the
    (immutable) thread object so successor machines only re-digest changed
    threads.  Byte strings cache their hash in CPython, so repeated
    seen-set membership tests never re-hash the code AST or payloads;
    :func:`repro.core.packed.decode_thread_key` recovers the PR-2
    object-level tuple."""
    try:
        return thread._tkey  # type: ignore[attr-defined]
    except AttributeError:
        pass
    key = (
        pack_tid_cs(thread.tid, code_state_id(thread.code, thread.stack))
        + thread.local.packed()
    )
    object.__setattr__(thread, "_tkey", key)
    return key


class Machine:
    """An executable PUSH/PULL machine over a sequential specification."""

    def __init__(
        self,
        spec: SequentialSpec,
        threads: Sequence[Thread] = (),
        global_log: GlobalLog = EMPTY_GLOBAL,
        ids: Optional[IdGenerator] = None,
        check_gray_criteria: bool = True,
        movers: Optional[MemoizedMovers] = None,
        tracer: Tracer = NULL_TRACER,
        denots: Optional[SpecDenotations] = None,
    ):
        self.spec = spec
        self.threads: Tuple[Thread, ...] = tuple(threads)
        self.global_log = global_log
        self.ids = ids or IdGenerator()
        self.check_gray_criteria = check_gray_criteria
        self.tracer = tracer
        self.movers = movers or shared_movers(spec, tracer=tracer)
        self.denots = denots or shared_denotations(spec, tracer=tracer)
        self._by_tid: Dict[int, int] = {t.tid: i for i, t in enumerate(self.threads)}
        self._skey: Optional[Tuple] = None
        # Successor-recipe memo (see successor_keys): payload-level thread
        # configuration → tid-independent expansion recipe.  Shared by all
        # successors of this machine root (copied by reference in _with),
        # so one exploration shares a single memo; never shared across
        # machine roots (check_gray_criteria and the spec may differ).
        self._skmemo: Dict[Tuple, Tuple] = {}
        self._skplans: Dict[Tuple, Tuple] = {}
        if len(self._by_tid) != len(self.threads):
            raise MachineError("duplicate thread ids")

    # ------------------------------------------------------------------ utils

    def _with(self, threads: Tuple[Thread, ...], global_log: GlobalLog) -> "Machine":
        """Successor-state constructor: shares every per-spec component and,
        when the thread list shape is unchanged (every rule except
        spawn/MS_END), the tid index too — the model checker builds tens of
        thousands of successors per scope, so ``__init__`` revalidation is
        skipped on this internal path.  The model checker's successors get
        their key from :meth:`successor_keys` (via the ``*_state``
        constructors); any other successor digests itself on first
        :meth:`state_key`.
        """
        machine = Machine.__new__(Machine)
        state = machine.__dict__
        state.update(self.__dict__)
        state["threads"] = threads
        state["global_log"] = global_log
        state["_skey"] = None
        if len(threads) != len(self.threads):
            # _replace_thread preserves positions, so otherwise the tid
            # index copied from the parent carries over.
            state["_by_tid"] = {t.tid: i for i, t in enumerate(threads)}
        return machine

    def thread(self, tid: int) -> Thread:
        try:
            return self.threads[self._by_tid[tid]]
        except KeyError:
            raise MachineError(f"no thread with tid {tid}")

    def _replace_thread(self, new_thread: Thread) -> Tuple[Thread, ...]:
        index = self._by_tid[new_thread.tid]
        return self.threads[:index] + (new_thread,) + self.threads[index + 1 :]

    def spawn(self, code: Code, stack: Any = None, tid: Optional[int] = None) -> Tuple["Machine", int]:
        """Add a thread for transaction ``code`` (a ``tx`` block or a bare
        body).  Returns the new machine and the thread id."""
        body = code.body if isinstance(code, Tx) else code
        if tid is None:
            tid = max(self._by_tid, default=-1) + 1
        if tid in self._by_tid:
            raise MachineError(f"thread id {tid} already in use")
        thread = Thread(tid, body, stack, EMPTY_LOCAL, original_code=body, original_stack=stack)
        return self._with(self.threads + (thread,), self.global_log), tid

    def end_thread(self, tid: int) -> "Machine":
        """MS_END: remove a completed thread ``{skip, σ, L}``.

        The paper's rule only requires ``skip`` code; we additionally insist
        the local log is empty (it always is after CMT, and removing a
        thread with live ``npshd``/``pshd`` entries would strand them).
        """
        thread = self.thread(tid)
        if not isinstance(thread.code, Skip):
            raise MachineError("MS_END: thread code is not skip")
        if len(thread.local) != 0:
            raise MachineError("MS_END: thread still has local-log entries")
        index = self._by_tid[tid]
        return self._with(self.threads[:index] + self.threads[index + 1 :], self.global_log)

    def drop_thread(self, tid: int) -> "Machine":
        """Administrative removal of an *abandoned* thread.

        Not a paper rule: MS_END requires ``skip`` code, but a permanently
        aborted transaction leaves its (rolled-back) thread holding the
        original, unconsumed program.  A long-running service cannot keep
        such threads around — every rule application copies the thread
        tuple — so after rollback (local log empty, nothing stranded) the
        service layer discards the thread wholesale.  The empty-local-log
        requirement is what keeps this sound: dropping a thread with live
        entries would strand ``pshd`` work in the global log.
        """
        thread = self.thread(tid)
        if len(thread.local) != 0:
            raise MachineError("drop_thread: thread still has local-log entries")
        index = self._by_tid[tid]
        return self._with(self.threads[:index] + self.threads[index + 1 :], self.global_log)

    def end_key(self, tid: int) -> Tuple:
        """The MS_END successor's canonical :meth:`state_key` — the thread
        digest drops out; the global part is shared.  The thread must be
        ``done`` (the checker guarantees it); :meth:`end_state` builds the
        successor only when this key is new."""
        parent_key = self.state_key()
        index = self._by_tid[tid]
        tkeys = parent_key[0]
        return (
            tkeys[:index] + tkeys[index + 1 :],
            parent_key[1],
            parent_key[2],
        )

    def end_state(self, tid: int, skey: Tuple) -> "Machine":
        """Construct the MS_END successor for a ``done`` thread."""
        machine = self.end_thread(tid)
        machine._skey = skey
        return machine

    # ------------------------------------------------------------------- APP

    def app_choices(self, tid: int) -> FrozenSetType:
        """The ``step(c)`` choices available to APP for thread ``tid``."""
        return step(self.thread(tid).code)

    @_traced_rule("APP", _new_entry)
    def app(self, tid: int, choice: Optional[Tuple[Call, Code]] = None) -> "Machine":
        """APP: apply a next reachable method locally.

        * criterion (i):  ``(m1, c2) ∈ step(c1)`` — ``choice`` must come
          from :meth:`app_choices` (checked);
        * criterion (ii): ``L1`` allows ``⟨m1, σ1, σ2, id1⟩`` — the local
          log admits the operation, whose post-stack ``σ2`` is synthesised
          from the specification's view of ``L1``;
        * criterion (iii): ``fresh(id1)`` — ids come from the machine's
          generator, unique by construction.

        The pre-code and pre-stack are saved in the ``npshd`` flag so UNAPP
        can rewind.
        """
        thread = self.thread(tid)
        choices = step(thread.code)
        if choice is None:
            if len(choices) != 1:
                raise MachineError(
                    f"APP: thread {tid} has {len(choices)} step choices; pass one"
                )
            choice = next(iter(choices))
        if choice not in choices:
            raise CriterionViolation("APP", "i", f"{choice[0]!r} not in step(c)")
        call_node, continuation = choice
        try:
            ret = self.denots.result_log(thread.local, call_node.method, call_node.args)
        except SpecError as exc:
            raise CriterionViolation("APP", "ii", str(exc))
        op = Op(call_node.method, call_node.args, ret, self.ids.fresh())
        if not self.denots.allows_log(thread.local, op):
            raise CriterionViolation("APP", "ii", f"local log does not allow {op.pretty()}")
        flag = NotPushed(saved_code=thread.code, saved_stack=thread.stack)
        new_thread = thread.evolve(
            code=continuation, stack=op.ret, local=thread.local.append(op, flag)
        )
        return self._with(self._replace_thread(new_thread), self.global_log)

    def app_state(
        self, tid: int, choice: Tuple[Call, Code], skey: Tuple
    ) -> "Machine":
        """Construct the APP successor for an instance
        :meth:`successor_keys` emitted (the operation id is minted here, so
        only states the checker actually keeps consume ids); ``skey``
        becomes the successor's cached state key.  The rule method does
        not delegate here: its criterion (ii) needs the minted operation."""
        thread = self.threads[self._by_tid[tid]]
        call_node, continuation = choice
        ret = self.denots.result_log(thread.local, call_node.method, call_node.args)
        op = Op(call_node.method, call_node.args, ret, self.ids.fresh())
        flag = NotPushed(saved_code=thread.code, saved_stack=thread.stack)
        new_thread = thread.evolve(
            code=continuation, stack=op.ret, local=thread.local.append(op, flag)
        )
        machine = self._with(self._replace_thread(new_thread), self.global_log)
        machine._skey = skey
        return machine

    # ----------------------------------------------------------------- UNAPP

    @_traced_rule("UNAPP", _last_entry)
    def unapp(self, tid: int) -> "Machine":
        """UNAPP: rewind the last local-log entry, which must be ``npshd``;
        restores the code and stack saved at APP time."""
        thread = self.thread(tid)
        if len(thread.local) == 0:
            raise MachineError("UNAPP: empty local log")
        last = thread.local[-1]
        if not isinstance(last.flag, NotPushed):
            raise CriterionViolation(
                "UNAPP", "i", f"last entry {last.op.pretty()} is {last.flag!r}, not npshd"
            )
        return self.unapp_state(tid, None)

    def unapp_state(self, tid: int, skey: Optional[Tuple]) -> "Machine":
        """Construct the UNAPP successor of an enabled instance.  The model
        checker passes the key :meth:`successor_keys` derived for it, which
        becomes the successor's cached :meth:`state_key`; the rule method
        passes ``None`` after checking the criteria itself."""
        thread = self.threads[self._by_tid[tid]]
        last = thread.local[-1]
        new_thread = thread.evolve(
            code=last.flag.saved_code,
            stack=last.flag.saved_stack,
            local=thread.local.drop_last(),
        )
        machine = self._with(self._replace_thread(new_thread), self.global_log)
        machine._skey = skey
        return machine

    # ------------------------------------------------------------------ PUSH

    def _check_push(self, thread: Thread, op: Op) -> CheckResult:
        """PUSH criteria (i)–(iii) for an ``npshd`` entry ``op``.

        * criterion (i):  ``op`` moves left of every ``npshd`` operation
          preceding it in the local log (trivial when pushing in APP order,
          as all known implementations do — §4);
        * criterion (ii): every uncommitted global operation of *another*
          transaction moves right of ``op`` (``u ◁ op``), so the pusher can
          still serialize before all concurrent uncommitted transactions;
        * criterion (iii): the global log allows ``op``.
        """
        local = thread.local
        position = local.index_of(op)
        codes = local.codes()
        op_pid = payload_class_id(op)
        lm = self.movers.left_mover_pid
        entries = local.entries
        # criterion (i) — both directions of local-order coherence:
        # (a) op moves left of every earlier unpushed own operation
        #     (preserves I_localOrder, Lemma 5.12);
        # (b) every *later*-local own operation already published (pushed,
        #     uncommitted) moves left of op — op will land after them in G
        #     against local order, the pattern I_reorderPUSH (Lemma 5.10)
        #     constrains.  In-order pushing never triggers (b); it bites on
        #     re-publication after an UNPUSH (found by the theorem fuzzer).
        for i in range(position):
            c = codes[i]
            if c & 3 == 0 and not lm(op_pid, c >> 2):
                earlier = entries[i]
                return lambda earlier=earlier: CriterionViolation(
                    "PUSH",
                    "i",
                    f"{op.pretty()} does not move left of earlier unpushed "
                    f"{earlier.op.pretty()}",
                )
        global_log = self.global_log
        gcodes = global_log.codes()
        if position + 1 < len(codes):
            gpos_of = global_log._positions()
            for i in range(position + 1, len(codes)):
                c = codes[i]
                if c & 3 != 1:
                    continue
                gpos = gpos_of.get(entries[i].op.op_id)
                if gpos is not None and not gcodes[gpos] & 1 and not lm(c >> 2, op_pid):
                    later = entries[i]
                    return lambda later=later: CriterionViolation(
                        "PUSH",
                        "i",
                        f"already-published later operation "
                        f"{later.op.pretty()} does not move left of "
                        f"{op.pretty()}",
                    )
        # criterion (ii)
        own = thread.own_op_ids()
        idrow = global_log.id_row()
        for i, gc in enumerate(gcodes):
            if gc & 1 or idrow[i] in own:
                continue
            if not lm(gc >> 1, op_pid):
                other = global_log.entries[i].op
                return lambda other=other: CriterionViolation(
                    "PUSH",
                    "ii",
                    f"uncommitted {other.pretty()} does not move right of {op.pretty()}",
                )
        # criterion (iii)
        if not self.denots.allows_pid(global_log, op_pid):
            return lambda: CriterionViolation(
                "PUSH", "iii", f"global log does not allow {op.pretty()}"
            )
        return None

    @_traced_rule("PUSH", _argument)
    def push(self, tid: int, op: Op) -> "Machine":
        """PUSH: publish a local ``npshd`` operation to the global log.

        Criteria are documented on :meth:`_check_push`.
        """
        thread = self.thread(tid)
        entry = thread.local.entry_for(op)
        if entry is None or not isinstance(entry.flag, NotPushed):
            raise MachineError(f"PUSH: {op.pretty()} is not an npshd entry of thread {tid}")
        fail = self._check_push(thread, op)
        if fail is not None:
            raise fail()
        return self.push_state(tid, op, None)

    def push_state(self, tid: int, op: Op, skey: Optional[Tuple]) -> "Machine":
        """Construct the PUSH successor of an enabled instance (``skey``
        as for :meth:`unapp_state`)."""
        thread = self.threads[self._by_tid[tid]]
        flag = thread.local.entry_for(op).flag
        new_local = thread.local.set_flag(
            op, Pushed(saved_code=flag.saved_code, saved_stack=flag.saved_stack)
        )
        machine = self._with(
            self._replace_thread(thread.evolve(local=new_local)),
            self.global_log.append(op, UNCOMMITTED),
        )
        machine._skey = skey
        return machine

    def first_unpushable(self, tid: int) -> Optional[Tuple[Op, CriterionViolation]]:
        """§6.2's commit validation: the first ``npshd`` operation of
        ``tid`` that could not be PUSHed once those before it were, with
        its violation, or ``None`` when every one could.  The PUSH criteria
        are checked on successors this method discards, so no rule is
        applied and no ``rule`` span is emitted, only each check's
        ``PUSH.check`` instant."""
        tracer = self.tracer
        machine = self
        for op in self.thread(tid).local.not_pushed_ops():
            fail = machine._check_push(machine.thread(tid), op)
            if fail is not None:
                exc = fail()
                if tracer.enabled:
                    _criterion_instant(tracer, "PUSH", tid, exc)
                return op, exc
            if tracer.enabled:
                _criterion_instant(tracer, "PUSH", tid)
            machine = machine.push_state(tid, op, None)
        return None

    # ---------------------------------------------------------------- UNPUSH

    def _check_unpush(self, thread: Thread, op: Op) -> CheckResult:
        """UNPUSH criteria for a ``pshd`` entry ``op``.

        * criterion (i) [gray]: ``G2`` (everything pushed after ``op``)
          does not depend on ``op`` — in mover form, ``op`` moves right
          past each later entry (``op ◁ e`` for ``e ∈ G2``), as if it had
          never been pushed.  The paper greys this out because disciplined
          drivers can be *proved* to maintain it; the machine checks it
          (under ``check_gray_criteria``) because Lemmas 5.10/5.12 lean on
          it — without it an arbitrary rule player can break
          ``I_localOrder`` by unpushing beneath its own later pushes;
        * criterion (ii): everything pushed chronologically after ``op``
          could still have been pushed had ``op`` not been (the global log
          without ``op`` is still allowed).
        """
        global_log = self.global_log
        gpos_of = global_log._positions()
        position = gpos_of.get(op.op_id)
        if position is None:
            return lambda: MachineError(
                f"UNPUSH: {op.pretty()} missing from global log (I_LG broken)"
            )
        gcodes = global_log.codes()
        if gcodes[position] & 1:
            return lambda: MachineError(f"UNPUSH: {op.pretty()} is already committed")
        if self.check_gray_criteria:
            op_pid = payload_class_id(op)
            lm = self.movers.left_mover_pid
            # (a) G2 does not depend on op: op moves right past everything
            #     pushed after it (Lemma 5.10's need).
            for i in range(position + 1, len(gcodes)):
                if not lm(op_pid, gcodes[i] >> 1):
                    later = global_log.entries[i]
                    return lambda later=later: CriterionViolation(
                        "UNPUSH",
                        "i",
                        f"{later.op.pretty()} (pushed later) depends on "
                        f"{op.pretty()}",
                    )
            # (b) own later-local published operations must move left of
            #     op — unpushing turns op ``npshd`` beneath them, the
            #     I_localOrder pattern (Lemma 5.12's UNPUSH case).  Found
            #     necessary by the theorem fuzzer.
            local = thread.local
            codes = local.codes()
            entries = local.entries
            local_position = local.index_of(op)
            for i in range(local_position + 1, len(codes)):
                c = codes[i]
                if c & 3 != 1:
                    continue
                later_gpos = gpos_of.get(entries[i].op.op_id)
                if later_gpos is None or gcodes[later_gpos] & 1:
                    continue
                if not lm(c >> 2, op_pid):
                    later_entry = entries[i]
                    return lambda later_entry=later_entry: CriterionViolation(
                        "UNPUSH",
                        "i",
                        f"own published {later_entry.op.pretty()} does not "
                        f"move left of {op.pretty()}",
                    )
        shrunk = global_log.remove(op)
        if not self.denots.allowed_log(shrunk):
            return lambda: CriterionViolation(
                "UNPUSH",
                "ii",
                f"later pushes are not allowed without {op.pretty()}",
            )
        return None

    @_traced_rule("UNPUSH", _argument)
    def unpush(self, tid: int, op: Op) -> "Machine":
        """UNPUSH: withdraw a pushed, still-uncommitted operation.

        Criteria are documented on :meth:`_check_unpush`.
        """
        thread = self.thread(tid)
        entry = thread.local.entry_for(op)
        if entry is None or not isinstance(entry.flag, Pushed):
            raise MachineError(f"UNPUSH: {op.pretty()} is not a pshd entry of thread {tid}")
        fail = self._check_unpush(thread, op)
        if fail is not None:
            raise fail()
        return self.unpush_state(tid, op, None)

    def unpush_state(self, tid: int, op: Op, skey: Optional[Tuple]) -> "Machine":
        """Construct the UNPUSH successor of an enabled instance (``skey``
        as for :meth:`unapp_state`)."""
        thread = self.threads[self._by_tid[tid]]
        flag = thread.local.entry_for(op).flag
        new_local = thread.local.set_flag(
            op, NotPushed(saved_code=flag.saved_code, saved_stack=flag.saved_stack)
        )
        machine = self._with(
            self._replace_thread(thread.evolve(local=new_local)),
            self.global_log.remove(op),
        )
        machine._skey = skey
        return machine

    # ------------------------------------------------------------------ PULL

    def _check_pull(self, thread: Thread, op: Op) -> CheckResult:
        """PULL criteria for a global-log operation ``op``.

        * criterion (i):  ``op ∉ L`` — not pulled (or owned) already;
        * criterion (ii): the local log allows ``op``;
        * criterion (iii) [gray]: everything the transaction has done
          locally moves right of ``op`` (``o ◁ op``), so the pulled effect
          can be viewed as having preceded the transaction.
        """
        local = thread.local
        if op.op_id in local._positions():
            return lambda: CriterionViolation(
                "PULL", "i", f"{op.pretty()} already in local log"
            )
        op_pid = payload_class_id(op)
        if not self.denots.allows_pid(local, op_pid):
            return lambda: CriterionViolation(
                "PULL", "ii", f"local log does not allow {op.pretty()}"
            )
        if self.check_gray_criteria:
            lm = self.movers.left_mover_pid
            codes = local.codes()
            for i, c in enumerate(codes):
                if c & 3 != 2 and not lm(c >> 2, op_pid):
                    own = local.entries[i].op
                    return lambda own=own: CriterionViolation(
                        "PULL",
                        "iii",
                        f"own {own.pretty()} does not move right of pulled {op.pretty()}",
                    )
        return None

    @_traced_rule("PULL", _argument)
    def pull(self, tid: int, op: Op) -> "Machine":
        """PULL: import a published operation into the local view.

        Criteria are documented on :meth:`_check_pull`.
        """
        thread = self.thread(tid)
        if op not in self.global_log:
            raise MachineError(f"PULL: {op.pretty()} not in global log")
        fail = self._check_pull(thread, op)
        if fail is not None:
            raise fail()
        return self.pull_state(tid, op, None)

    def pull_state(self, tid: int, op: Op, skey: Optional[Tuple]) -> "Machine":
        """Construct the PULL successor of an enabled instance (``skey``
        as for :meth:`unapp_state`)."""
        thread = self.threads[self._by_tid[tid]]
        new_thread = thread.evolve(local=thread.local.append(op, Pulled()))
        machine = self._with(self._replace_thread(new_thread), self.global_log)
        machine._skey = skey
        return machine

    # ---------------------------------------------------------------- UNPULL

    def _check_unpull(self, thread: Thread, op: Op) -> CheckResult:
        """UNPULL criterion (i): the local log without ``op`` is still
        allowed — the transaction did nothing that depended on ``op``."""
        shrunk = thread.local.remove(op)
        if not self.denots.allowed_log(shrunk):
            return lambda: CriterionViolation(
                "UNPULL", "i", f"local log depends on pulled {op.pretty()}"
            )
        return None

    @_traced_rule("UNPULL", _argument)
    def unpull(self, tid: int, op: Op) -> "Machine":
        """UNPULL: discard a pulled operation.

        Criterion is documented on :meth:`_check_unpull`.
        """
        thread = self.thread(tid)
        entry = thread.local.entry_for(op)
        if entry is None or not isinstance(entry.flag, Pulled):
            raise MachineError(f"UNPULL: {op.pretty()} is not a pld entry of thread {tid}")
        fail = self._check_unpull(thread, op)
        if fail is not None:
            raise fail()
        return self.unpull_state(tid, op, None)

    def unpull_state(self, tid: int, op: Op, skey: Optional[Tuple]) -> "Machine":
        """Construct the UNPULL successor of an enabled instance (``skey``
        as for :meth:`unapp_state`)."""
        thread = self.threads[self._by_tid[tid]]
        new_thread = thread.evolve(local=thread.local.remove(op))
        machine = self._with(self._replace_thread(new_thread), self.global_log)
        machine._skey = skey
        return machine

    # ------------------------------------------------------------------- CMT

    def _check_cmt(self, thread: Thread) -> CheckResult:
        """CMT criteria.

        * criterion (i):   ``fin(c)`` — a method-free path to ``skip``;
        * criterion (ii):  ``L ⊆ G`` — every own operation pushed
          (``⌊L⌋_npshd = ∅``);
        * criterion (iii): every pulled operation is committed in ``G``;
        * criterion (iv):  ``cmt(G, L, G')`` — own pushed operations flip
          to ``gCmt`` (the construction, always possible under I_LG).
        """
        if not fin(thread.code):
            return lambda: CriterionViolation(
                "CMT", "i", f"no method-free path to skip in {thread.code!r}"
            )
        local = thread.local
        codes = local.codes()
        for c in codes:
            if c & 3 == 0:
                return lambda: CriterionViolation(
                    "CMT",
                    "ii",
                    "unpushed operations remain: "
                    + ", ".join(o.pretty() for o in local.not_pushed_ops()),
                )
        global_log = self.global_log
        gpos_of = global_log._positions()
        gcodes = global_log.codes()
        entries = local.entries
        for i, c in enumerate(codes):
            if c & 3 != 2:
                continue
            gpos = gpos_of.get(entries[i].op.op_id)
            if gpos is None:
                pulled = entries[i].op
                return lambda pulled=pulled: CriterionViolation(
                    "CMT", "iii", f"pulled {pulled.pretty()} vanished from global log"
                )
            if not gcodes[gpos] & 1:
                pulled = entries[i].op
                return lambda pulled=pulled: CriterionViolation(
                    "CMT", "iii", f"pulled {pulled.pretty()} is still uncommitted"
                )
        return None

    @_traced_rule("CMT")
    def cmt(self, tid: int) -> "Machine":
        """CMT: the instantaneous commit.

        Criteria are documented on :meth:`_check_cmt`.  The thread finishes
        as ``{skip, σ, []}`` (removable via MS_END).
        """
        fail = self._check_cmt(self.thread(tid))
        if fail is not None:
            raise fail()
        return self.cmt_state(tid, None)

    def cmt_state(self, tid: int, skey: Optional[Tuple]) -> "Machine":
        """Construct the CMT successor of an enabled instance (``skey``
        as for :meth:`unapp_state`)."""
        thread = self.threads[self._by_tid[tid]]
        new_global = self.global_log.commit(thread.local)
        new_thread = thread.evolve(code=SKIP, local=EMPTY_LOCAL)
        machine = self._with(self._replace_thread(new_thread), new_global)
        machine._skey = skey
        return machine

    # -------------------------------------------- batched key-first expansion

    def successor_plan(
        self,
        tid: int,
        include_backward: bool,
        pull_active: bool,
        pull_committed_only: bool,
        pull_budget: Optional[int],
    ) -> Tuple[Tuple, ...]:
        """Every enabled rule instance of one (unfinished) thread as a
        ``(rule, arg, new_tkey, gop)`` plan step, in the checker's
        canonical emission order (APP, PUSH, PULL, CMT, UNAPP, UNPUSH,
        UNPULL) — the kernel's one enumeration of enabled instances.

        ``arg`` is the step choice (APP), the operation
        (PUSH/PULL/UNPUSH/UNPULL) or ``None`` (CMT/UNAPP); ``new_tkey`` is
        the successor's thread digest and ``gop`` its global-column patch
        (see :meth:`successor_keys`).  The pull parameters are the model
        checker's PULL policy: whether PULL is explored at all, only of
        committed entries, and the cap on simultaneously held ``pld``
        entries (``None`` — uncapped).

        The plan is a pure function of the thread's value (tid, interned
        code-state, local log), the global log and the policy; the logs
        hash by value with cached hashes, so product states that revisit
        a configuration — the overwhelmingly common case — pay one tuple
        hash for the whole expansion.  Ops handed back through a shared
        plan may be equal rather than identical objects — sound, because
        every log keys them by ``op_id``.
        """
        thread = self.threads[self._by_tid[tid]]
        pkey = (
            tid,
            code_state_id(thread.code, thread.stack),
            thread.local,
            self.global_log,
            include_backward,
            pull_active,
            pull_committed_only,
            pull_budget,
        )
        plans = self._skplans
        plan = plans.get(pkey)
        if plan is None:
            plan = plans[pkey] = self._assemble_plan(
                thread,
                include_backward,
                pull_active,
                pull_committed_only,
                pull_budget,
            )
        return plan

    def successor_keys(
        self,
        tid: int,
        include_backward: bool,
        pull_active: bool,
        pull_committed_only: bool,
        pull_budget: Optional[int],
    ) -> List[Tuple]:
        """Every enabled rule instance of one (unfinished) thread as a
        ``(rule, arg, skey)`` triple: :meth:`successor_plan`'s instances,
        in its order, with each successor's canonical :meth:`state_key`
        assembled around this state's key — no successor constructed, no
        operation id minted.  ``arg`` is what the matching ``*_state``
        constructor needs when the key turns out to be new.

        Which instances are enabled — and the integer patches their keys
        need — is a pure function of the thread's payload-level
        configuration: its interned code-state, its packed local column,
        the packed global column, and the local→global position map
        (``lgmap``; the §5.3 criteria read global positions only through
        it).  That decision vector is computed once per configuration by
        :meth:`_successor_recipe` (PUSH, PULL, CMT, UNPUSH and UNPULL go
        through the rule methods' own ``_check_*`` predicates) and
        memoized in ``_skmemo``; only the key bytes are re-assembled per
        state.
        """
        plan = self.successor_plan(
            tid, include_backward, pull_active, pull_committed_only, pull_budget
        )
        index = self._by_tid[tid]
        parent_key = self.state_key()
        tkeys = parent_key[0]
        head = tkeys[:index]
        tail = tkeys[index + 1 :]
        grows = parent_key[1]
        orow = parent_key[2]
        out: List[Tuple] = []
        emit = out.append
        for rule, arg, new_tkey, gop in plan:
            tk = head + (new_tkey,) + tail
            if gop is None:
                emit((rule, arg, (tk, grows, orow)))
            elif gop[0] == "push":
                emit((rule, arg, (tk, grows + gop[1], orow + gop[2])))
            elif gop[0] == "unpush":
                gidx = gop[1]
                emit((
                    rule,
                    arg,
                    (
                        tk,
                        grows[:gidx] + grows[gidx + 4 :],
                        orow[:gidx] + orow[gidx + 4 :],
                    ),
                ))
            else:  # "cmt" — release this state's owner row, live
                owners = unpack_owners(orow)
                gcodes = unpack_codes(grows)
                for i, o in enumerate(owners):
                    if o == tid:
                        gcodes[i] |= 1
                        owners[i] = -1
                emit((rule, arg, (tk, gcodes.tobytes(), owners.tobytes())))
        return out

    def _assemble_plan(
        self,
        thread: Thread,
        include_backward: bool,
        pull_active: bool,
        pull_committed_only: bool,
        pull_budget: Optional[int],
    ) -> Tuple[Tuple, ...]:
        """Assemble one thread's emission plan from its (payload-level,
        memoized) expansion recipe: ``(rule, arg, new_tkey, gop)`` per
        enabled instance, where ``new_tkey`` is the successor's finished
        thread digest and ``gop`` the global-column patch (``None`` for
        rules that leave ``G`` alone, an appended/dropped row for
        PUSH/UNPUSH, a marker for CMT whose owner flip must read the live
        owner row)."""
        local = thread.local
        global_log = self.global_log
        entries = local.entries
        gpos_of = global_log._positions()
        lgmap = pack_owners(
            gpos_of.get(e.op.op_id, -1) for e in entries
        )
        memo_key = (
            include_backward,
            pull_active,
            pull_committed_only,
            pull_budget,
            code_state_id(thread.code, thread.stack),
            local.packed(),
            global_log.packed(),
            lgmap,
        )
        memo = self._skmemo
        recipe = memo.get(memo_key)
        if recipe is None:
            recipe = memo[memo_key] = self._successor_recipe(
                thread,
                include_backward,
                pull_active,
                pull_committed_only,
                pull_budget,
            )
        tid = thread.tid
        tkey = _thread_key(thread)
        lpk = local.packed()
        gentries = global_log.entries
        tid_row = pack_i32(tid)
        out: List[Tuple] = []
        emit = out.append
        for ins in recipe:
            rule = ins[0]
            if rule == "UNPULL":
                offset = 8 + 4 * ins[1]
                emit((
                    rule,
                    entries[ins[1]].op,
                    tkey[:offset] + tkey[offset + 4 :],
                    None,
                ))
            elif rule == "UNPUSH":
                offset = 8 + 4 * ins[1]
                emit((
                    rule,
                    entries[ins[1]].op,
                    tkey[:offset] + ins[3] + tkey[offset + 4 :],
                    ("unpush", 4 * ins[2]),
                ))
            elif rule == "PUSH":
                offset = 8 + 4 * ins[1]
                emit((
                    rule,
                    entries[ins[1]].op,
                    tkey[:offset] + ins[2] + tkey[offset + 4 :],
                    ("push", ins[3], tid_row),
                ))
            elif rule == "APP":
                emit((
                    rule,
                    ins[1],
                    pack_tid_cs(tid, ins[2]) + lpk + ins[3],
                    None,
                ))
            elif rule == "PULL":
                emit((
                    rule,
                    gentries[ins[1]].op,
                    tkey + ins[2],
                    None,
                ))
            elif rule == "CMT":
                emit((
                    rule,
                    None,
                    pack_tid_cs(tid, code_state_id(SKIP, thread.stack)),
                    ("cmt",),
                ))
            else:  # UNAPP — the saved continuation comes off the live flag
                flag = entries[-1].flag
                emit((
                    rule,
                    None,
                    pack_tid_cs(
                        tid, code_state_id(flag.saved_code, flag.saved_stack)
                    )
                    + lpk[:-4],
                    None,
                ))
        return tuple(out)

    def _successor_recipe(
        self,
        thread: Thread,
        include_backward: bool,
        pull_active: bool,
        pull_committed_only: bool,
        pull_budget: Optional[int],
    ) -> Tuple[Tuple, ...]:
        """The tid-independent expansion recipe of one thread
        configuration (see :meth:`successor_keys`): which rule instances
        are enabled, as instruction tuples carrying only interned codes,
        log positions and pre-packed byte patches.

        Everything recorded here is a pure function of the memo key —
        criterion decisions go through the payload-interned oracles
        (movers, denotations), positions through ``lgmap`` — so replaying
        a recipe under a different tid or owner row yields exactly the
        keys the unmemoized derivation would have produced.  Data that is
        *not* key-determined (operation identities, saved continuations,
        this state's owner row) never enters the recipe; the assembly
        loop reads it from the live state.
        """
        local = thread.local
        denots = self.denots
        out: List[Tuple] = []
        emit = out.append
        # APP — every step choice.
        result_log = denots.result_log
        allows_pid = denots.allows_pid
        for choice in sorted_choices(thread.code):
            call_node, continuation = choice
            try:
                ret = result_log(local, call_node.method, call_node.args)
            except SpecError:
                continue
            pid = payload_class_of(call_node.method, call_node.args, ret)
            if not allows_pid(local, pid):
                continue
            emit((
                "APP",
                choice,
                code_state_id(continuation, ret),
                pack_u32(pid << 2),
            ))
        # PUSH — every npshd entry.
        npshd = local.not_pushed_ops()
        if npshd:
            check_push = self._check_push
            index_of = local.index_of
            codes = local.codes()
            for op in npshd:
                if check_push(thread, op) is not None:
                    continue
                lidx = index_of(op)
                emit((
                    "PUSH",
                    lidx,
                    pack_u32((codes[lidx] & ~3) | 1),
                    pack_u32(payload_class_id(op) << 1),
                ))
        # PULL — every global entry not in L (per policy and budget).
        if pull_active and (
            pull_budget is None or len(local.pulled_ops()) < pull_budget
        ):
            check_pull = self._check_pull
            in_local = local._positions()
            for gidx, g_entry in enumerate(self.global_log.entries):
                op = g_entry.op
                if op.op_id in in_local:
                    continue
                if pull_committed_only and not g_entry.is_committed:
                    continue
                if check_pull(thread, op) is not None:
                    continue
                emit((
                    "PULL",
                    gidx,
                    pack_u32((payload_class_id(op) << 2) | 2),
                ))
        # CMT.
        if self._check_cmt(thread) is None:
            emit(("CMT",))
        if include_backward:
            codes = local.codes()
            # UNAPP (last entry only, by the rule's shape).
            if codes and codes[-1] & 3 == 0:
                emit(("UNAPP",))
            # UNPUSH — every pshd entry.
            pshd = local.pushed_ops()
            if pshd:
                check_unpush = self._check_unpush
                index_of = local.index_of
                gpos_of = self.global_log._positions()
                for op in pshd:
                    if check_unpush(thread, op) is not None:
                        continue
                    lidx = index_of(op)
                    emit((
                        "UNPUSH",
                        lidx,
                        gpos_of[op.op_id],
                        pack_u32(codes[lidx] & ~3),
                    ))
            # UNPULL — every pld entry.
            pld = local.pulled_ops()
            if pld:
                check_unpull = self._check_unpull
                index_of = local.index_of
                for op in pld:
                    if check_unpull(thread, op) is not None:
                        continue
                    emit(("UNPULL", index_of(op)))
        return tuple(out)

    # ------------------------------------------------- structural rules (Fig 6)

    def structural_steps(self, tid: int) -> Iterator[Tuple[str, "Machine"]]:
        """The NONDETL/NONDETR/LOOP/SEMI/SEMISKIP reductions for ``tid``.

        Yields ``(rule_name, successor)`` pairs.  SEMI recursion is folded
        into the traversal (the reduction type is inductive, Figure 6).
        """
        thread = self.thread(tid)
        for rule, new_code in _structural_code_steps(thread.code):
            new_thread = thread.evolve(code=new_code)
            yield rule, self._with(self._replace_thread(new_thread), self.global_log)

    # -------------------------------------------------------------- inspection

    def enabled_rules(self, tid: int) -> List[str]:
        """Names of the Figure 5 rules with at least one enabled instance
        for ``tid`` in the unrestricted model (every PULL, no pull cap), in
        :meth:`successor_plan`'s emission order."""
        return list(dict.fromkeys(
            instance[0] for instance in self.successor_plan(tid, True, True, False, None)
        ))

    def state_key(self) -> Tuple:
        """A hashable digest of the machine state (payload-level via the
        intern tables, so model checker visits are independent of id
        allocation order).

        Packed representation: ``(thread_key_bytes…, global_codes_bytes,
        owner_row_bytes)`` — see :mod:`repro.core.packed` for the layout
        and the decoder back to the PR-2 object-level key.  Computed at
        most once per (immutable) machine, and never for the model
        checker's successors, which :meth:`successor_keys` hands their key;
        thread digests are cached on the thread objects, so a successor
        state only re-digests the one thread a rule changed plus the
        global-log owner bytes.
        """
        key = self._skey
        if key is not None:
            return key
        owners: Dict[int, int] = {}
        for t in self.threads:
            tid = t.tid
            for op in t.local.own_ops():
                owners[op.op_id] = tid
        thread_keys = tuple(_thread_key(t) for t in self.threads)
        # The id-free global row codes are cached on the log node (shared
        # by every successor whose rule left G untouched); only the owner
        # row depends on the thread list.
        global_log = self.global_log
        owner_row = pack_owners(
            owners.get(i, -1) for i in global_log.id_row()
        )
        key = self._skey = (thread_keys, global_log.packed(), owner_row)
        return key

    def fingerprint(self) -> int:
        """The canonical fingerprint: the hash of :meth:`state_key`.

        Because the key (and each thread digest feeding it) is cached on
        immutable objects shared between a state and its successors, the
        fingerprint is maintained incrementally across transitions rather
        than recomputed from the full state.
        """
        return hash(self.state_key())


def _structural_code_steps(code: Code) -> Iterator[Tuple[str, Code]]:
    if isinstance(code, Choice):
        yield "NONDETL", code.left
        yield "NONDETR", code.right
        return
    if isinstance(code, Star):
        yield "LOOP", Choice(Seq(code.body, code), SKIP)
        return
    if isinstance(code, Seq):
        if isinstance(code.first, Skip):
            yield "SEMISKIP", code.second
            return
        for rule, new_first in _structural_code_steps(code.first):
            yield f"SEMI:{rule}", seq_cont(new_first, code.second)
        return
    # Skip / Call / Tx have no structural reductions.
    return


# Typing helper (language.step returns a frozenset of pairs).
FrozenSetType = Iterable[Tuple[Call, Code]]
