"""Operation records (§3, "Operations and logs").

An operation record ``op = ⟨m, σ1, σ2, id⟩`` is a tuple of the method name
``m``, the thread-local pre-stack ``σ1`` (method arguments), the post-stack
``σ2`` (return values) and a globally unique identifier ``id``.

We realise the stacks as immutable tuples so operations are hashable and can
be used as log entries, dictionary keys and members of frozen sets.  Log
membership in the paper is *by id* (the ``∈``/``∖``/``⊆`` liftings in §4 all
compare ids), which :class:`Op` mirrors: two records with the same id are
the same operation regardless of payload, and constructing two live records
with the same id is a :class:`~repro.core.errors.LogError`-grade driver bug
that :class:`IdGenerator` makes impossible by construction.
"""

from __future__ import annotations

import threading
from os import getpid
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Tuple


@dataclass(frozen=True)
class Op:
    """An operation record ``⟨m, σ1, σ2, id⟩``.

    Parameters
    ----------
    method:
        The operation name ``m`` (e.g. ``"put"``, ``"read"``).
    args:
        The pre-stack ``σ1``: the arguments the method was invoked with.
    ret:
        The post-stack ``σ2``: the value(s) the method returned.  ``None``
        models void methods.
    op_id:
        Globally unique identifier.  Equality and hashing of :class:`Op`
        deliberately use *only* this field, mirroring the paper's id-based
        log liftings.
    """

    method: str
    args: Tuple[Any, ...]
    ret: Any
    op_id: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Op):
            return NotImplemented
        return self.op_id == other.op_id

    def __hash__(self) -> int:
        return hash(self.op_id)

    def same_payload(self, other: "Op") -> bool:
        """Structural comparison ignoring the id (used by tests and by the
        atomic-machine simulation, which re-executes methods afresh)."""
        return (
            self.method == other.method
            and self.args == other.args
            and self.ret == other.ret
        )

    def with_ret(self, ret: Any) -> "Op":
        """A copy of this record with post-stack ``ret`` (same id).

        Used when a method's return value is only learned after the record
        was speculatively created.
        """
        return Op(self.method, self.args, ret, self.op_id)

    def pretty(self) -> str:
        """Human-readable rendering, e.g. ``put('a', 5) -> None #12``."""
        arg_text = ", ".join(repr(a) for a in self.args)
        return f"{self.method}({arg_text}) -> {self.ret!r} #{self.op_id}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Op({self.pretty()})"


class IdGenerator:
    """Source of fresh operation ids (the paper's ``fresh(id)`` predicate).

    Thread-safe so that drivers running transactions from real threads (the
    examples do, the model checker does not) still get globally unique ids.
    """

    def __init__(self, start: int = 0):
        self._start = start
        self._next = start
        self._lock = threading.Lock()

    def fresh(self) -> int:
        """Return an id never returned before by this generator."""
        with self._lock:
            new_id = self._next
            self._next += 1
            return new_id

    def is_issued(self, op_id: int) -> bool:
        """Whether ``op_id`` came from this generator (for diagnostics).
        Ids are minted consecutively, so the issued set is a range and a
        long-running generator stores none of them."""
        with self._lock:
            return self._start <= op_id < self._next


def make_op(
    method: str,
    args: Iterable[Any] = (),
    ret: Any = None,
    ids: Optional[IdGenerator] = None,
    op_id: Optional[int] = None,
) -> Op:
    """Convenience constructor for operation records.

    Exactly one of ``ids`` / ``op_id`` should be supplied; tests that only
    care about payloads may omit both and receive ids from a shared module
    generator (still unique within the process).
    """
    if ids is not None and op_id is not None:
        raise ValueError("pass either `ids` or `op_id`, not both")
    if op_id is None:
        op_id = (ids or _MODULE_IDS).fresh()
    return Op(method, tuple(args), ret, op_id)


_MODULE_IDS = IdGenerator(start=1_000_000)


# ---------------------------------------------------------------------------
# Intern tables (the packed kernel's canonical small-int codes)
# ---------------------------------------------------------------------------

#: registry ``(method, args, ret) -> small int``.  Two operations share a
#: payload-class id iff their payloads are equal, so id-renamed logs map to
#: identical key tuples — the property the denotation cache, the mover memo
#: and the model checker's canonical state keys all rely on.
_PAYLOAD_CLASSES: dict = {}

#: reverse table ``pid -> (method, args, ret)`` — lets packed consumers
#: (the POR canonicalizer's mover probes, the reference canonicalizer,
#: the identity tests) decode interned codes back to payload level.
_PAYLOAD_LIST: list = []


def payload_class_of(method: str, args: Tuple[Any, ...], ret: Any) -> int:
    """Intern a payload triple to its dense small-int class id.

    The row-level entry point: key derivations and the reduction layer
    work on id-free rows rather than :class:`Op` records, so they intern
    without allocating a probe operation.  Ids are process-local (stable
    within a run, never persisted or compared across processes).
    """
    key = (method, args, ret)
    pid = _PAYLOAD_CLASSES.get(key)
    if pid is None:
        pid = _PAYLOAD_CLASSES[key] = len(_PAYLOAD_CLASSES)
        _PAYLOAD_LIST.append(key)
    return pid


def payload_of(pid: int) -> Tuple[str, Tuple[Any, ...], Any]:
    """The ``(method, args, ret)`` triple interned as class ``pid``."""
    return _PAYLOAD_LIST[pid]


def payload_class_id(op: Op) -> int:
    """The canonical small-int id of ``op``'s payload class.

    The id is cached on the operation record itself (a private memo slot;
    :meth:`Op.with_ret` returns a *new* record, so a changed payload can
    never see a stale id).  Payload-class ids are process-local: they are
    stable within a run but must not be persisted or compared across
    processes.
    """
    try:
        return op._payload_class  # type: ignore[attr-defined]
    except AttributeError:
        pass
    pid = payload_class_of(op.method, op.args, op.ret)
    object.__setattr__(op, "_payload_class", pid)
    return pid


# -- code states ------------------------------------------------------------

#: registry ``(code, stack) -> small int``.  A thread's control component
#: — its remaining program and local stack — compares structurally in
#: state keys; interning it makes that comparison a one-int equality and
#: skips re-hashing the (recursively hashed) code AST per visit.
_CODE_STATES: dict = {}

#: reverse table ``csid -> (code, stack)``.
_CODE_STATE_LIST: list = []


def code_state_id(code: Any, stack: Any) -> int:
    """Intern a ``(code, stack)`` control state to a dense small int.

    A per-code attribute memo (``stack -> csid``) makes the common case —
    re-deriving keys for the same code node — a dict hit that never hashes
    the AST; the structural registry behind it guarantees that distinct
    code objects with equal structure share one id (state keys compare by
    structure, not object identity).

    The memo is tagged with the owning process's pid: code ASTs travel
    across process boundaries (fuzz jobs pickle them) and
    a pickled memo carries the *sender's* csids, which mean nothing — and
    may be out of range — against this process's tables.  A foreign tag
    just rebuilds the memo against the local registry.
    """
    pid = getpid()
    try:
        owner, memo = code._cs_memo
        if owner != pid:
            raise AttributeError
    except (AttributeError, TypeError, ValueError):
        memo = {}
        object.__setattr__(code, "_cs_memo", (pid, memo))
    csid = memo.get(stack)
    if csid is None:
        key = (code, stack)
        csid = _CODE_STATES.get(key)
        if csid is None:
            csid = _CODE_STATES[key] = len(_CODE_STATES)
            _CODE_STATE_LIST.append(key)
        memo[stack] = csid
    return csid


def code_state_of(csid: int) -> Tuple[Any, Any]:
    """The ``(code, stack)`` pair interned as control state ``csid``."""
    return _CODE_STATE_LIST[csid]


def intern_stats() -> dict:
    """Sizes of the process-wide intern tables (the ``intern.*`` gauges
    surfaced by the kernel benchmark and documented in OBSERVABILITY.md)."""
    return {
        "intern.payload_classes": len(_PAYLOAD_CLASSES),
        "intern.code_states": len(_CODE_STATES),
    }
