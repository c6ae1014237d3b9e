"""Local and global operation logs (§3–§4).

The PUSH/PULL model has no concrete state: the shared state is a *global
log* ``G : list (op × g)`` whose flags distinguish committed (``gCmt``) from
uncommitted (``gUCmt``) operations, and each thread carries a *local log*
``L : list (op × l)`` whose flags record whether an applied operation has
been pushed:

* ``npshd c`` — applied locally, not pushed; ``c`` is the code that was
  active when the entry was created (so UNAPP can rewind to it);
* ``pshd c``  — applied and pushed (``c`` likewise saved);
* ``pld``     — pulled from the global log (someone else's operation).

This module implements the logs, the lifted set operations (``∈``, ``∖``,
``⊆``, ``∩`` — all by operation id, order preserved by the first operand),
the projections ``⌊L⌋_l`` / ``⌊G⌋_g`` and the commit transformer
``cmt(G, L, G')`` from the bottom of Figure 5.

Logs are immutable (tuples under the hood): machine steps build new logs,
which is what makes the model checker's state hashing and the rewind
relations of §5.4 cheap and safe.

Both log classes are *persistent* in the incremental-kernel sense: every
derived log is a new node sharing its entry objects with the parent, and
each node lazily caches its membership index (``op_id → position``), its
hash, and every projection the Figure 5 criteria consult (``⌊L⌋_npshd``,
``⌊G⌋_gCmt``, ``ids()``, ``all_ops()``).  Derivations that preserve
positions (``set_flag``, ``cmt``) share the parent's index outright and
appends extend it by one entry, so repeated criterion queries cost O(1)
after the first computation instead of O(n) per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple, Union

from repro.core.errors import LogError
from repro.core.ops import Op, payload_class_id
from repro.core.packed import pack_codes, pack_u32

# ---------------------------------------------------------------------------
# Local-log flags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NotPushed:
    """Flag ``npshd c``: locally applied, not yet in the global log."""

    saved_code: Any = None
    saved_stack: Any = None

    def __repr__(self) -> str:
        return "npshd"


@dataclass(frozen=True)
class Pushed:
    """Flag ``pshd c``: locally applied and present in the global log."""

    saved_code: Any = None
    saved_stack: Any = None

    def __repr__(self) -> str:
        return "pshd"


@dataclass(frozen=True)
class Pulled:
    """Flag ``pld``: pulled from the global log (another thread's op)."""

    def __repr__(self) -> str:
        return "pld"


LocalFlag = Union[NotPushed, Pushed, Pulled]

#: flag *kind* names (the saved code/stack inside ``npshd``/``pshd`` flags
#: is bookkeeping, not state identity — see ``LocalLog.flag_rows``).
_FLAG_KIND = {NotPushed: "npshd", Pushed: "pshd", Pulled: "pld"}

#: packed flag-kind codes (the low two bits of a local row code — must
#: match ``repro.core.packed.KIND_NAMES`` order).
_FLAG_CODE = {NotPushed: 0, Pushed: 1, Pulled: 2}

# ---------------------------------------------------------------------------
# Global-log flags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uncommitted:
    """Flag ``gUCmt``: pushed by a transaction that has not committed."""

    def __repr__(self) -> str:
        return "gUCmt"


@dataclass(frozen=True)
class Committed:
    """Flag ``gCmt``: the owning transaction has committed."""

    def __repr__(self) -> str:
        return "gCmt"


GlobalFlag = Union[Uncommitted, Committed]

UNCOMMITTED = Uncommitted()
COMMITTED = Committed()
PULLED = Pulled()


@dataclass(frozen=True)
class LocalEntry:
    """One local-log element ``[op, l]``."""

    op: Op
    flag: LocalFlag

    @property
    def is_pushed(self) -> bool:
        return isinstance(self.flag, Pushed)

    @property
    def is_not_pushed(self) -> bool:
        return isinstance(self.flag, NotPushed)

    @property
    def is_pulled(self) -> bool:
        return isinstance(self.flag, Pulled)

    @property
    def is_own(self) -> bool:
        """Whether the entry is the thread's own operation (pshd | npshd)."""
        return not self.is_pulled


@dataclass(frozen=True)
class GlobalEntry:
    """One global-log element ``(op, g)``."""

    op: Op
    flag: GlobalFlag

    @property
    def is_committed(self) -> bool:
        return isinstance(self.flag, Committed)


# ---------------------------------------------------------------------------
# Local log
# ---------------------------------------------------------------------------


class LocalLog:
    """An immutable, persistent local log ``L : list (op × l)``.

    Entry objects are shared between a log and every log derived from it;
    the membership index, hash and projections are computed at most once
    per node and shared forward where the derivation preserves positions.
    """

    __slots__ = ("_entries", "_hash", "_index", "_proj")

    def __init__(self, entries: Iterable[LocalEntry] = ()):
        self._entries: Tuple[LocalEntry, ...] = tuple(entries)
        self._hash: Optional[int] = None
        self._index: Optional[dict] = None
        self._proj: Optional[dict] = None

    @classmethod
    def _make(
        cls, entries: Tuple[LocalEntry, ...], index: Optional[dict] = None
    ) -> "LocalLog":
        """Internal node constructor: adopt ``entries`` (already a tuple)
        and optionally a position index inherited from the parent node."""
        log = cls.__new__(cls)
        log._entries = entries
        log._hash = None
        log._index = index
        log._proj = None
        return log

    # -- basic container protocol ------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LocalEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> LocalEntry:
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalLog):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        # Hash from the memoized identity/payload columns rather than the
        # deep entry tuple: consistent with __eq__ (equal logs have equal
        # ids and codes), and collisions — logs differing only in saved
        # flags — fall back to the (identity-shortcutting) entry compare.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(
                (self.packed(), tuple(self._positions()))
            )
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"[{e.op.pretty()}, {e.flag!r}]" for e in self)
        return f"LocalLog({body})"

    @property
    def entries(self) -> Tuple[LocalEntry, ...]:
        return self._entries

    # -- membership (by id, per the paper's lifting) -----------------------

    def _positions(self) -> dict:
        """The cached ``op_id → position`` index (built on first use)."""
        index = self._index
        if index is None:
            index = self._index = {
                e.op.op_id: i for i, e in enumerate(self._entries)
            }
        return index

    def _projection(self, name: str, value_fn: Callable[[], Any]) -> Any:
        """Memoise ``value_fn()`` under ``name`` in the node's cache dict.

        The cache dict is shared by several key families, so projection
        names are namespaced: every string key carries a ``"L."`` prefix
        (``"G."`` on :class:`GlobalLog`), and non-projection families —
        removal memos ``("rm", id)``, ownership rows ``("ownb", own)``,
        per-cache denotation slots — use tuple keys, which can never
        collide with any string.  Callers pass the fully namespaced name.
        """
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get(name)
        if got is None:
            got = proj[name] = value_fn()
        return got

    def __contains__(self, op: Op) -> bool:
        return op.op_id in self._positions()

    def ids(self) -> frozenset:
        return self._projection("L.ids", lambda: frozenset(self._positions()))

    def entry_for(self, op: Op) -> Optional[LocalEntry]:
        position = self._positions().get(op.op_id)
        return None if position is None else self._entries[position]

    def index_of(self, op: Op) -> int:
        position = self._positions().get(op.op_id)
        if position is None:
            raise LogError(f"operation {op.pretty()} not in local log")
        return position

    # -- construction -------------------------------------------------------

    def append(self, op: Op, flag: LocalFlag) -> "LocalLog":
        positions = self._positions()
        if op.op_id in positions:
            raise LogError(f"duplicate operation id {op.op_id} in local log")
        index = dict(positions)
        index[op.op_id] = len(self._entries)
        child = LocalLog._make(self._entries + (LocalEntry(op, flag),), index)
        proj = self._proj
        if proj:
            # Appends extend the parent's row projections by one element.
            inherited = {}
            pkey = proj.get("L.pkey")
            if pkey is not None:
                inherited["L.pkey"] = pkey + (payload_class_id(op),)
            frows = proj.get("L.frows")
            if frows is not None:
                inherited["L.frows"] = frows + (
                    (op.method, op.args, op.ret, _FLAG_KIND[type(flag)]),
                )
            codes = proj.get("L.codes")
            if codes is not None:
                new_code = (payload_class_id(op) << 2) | _FLAG_CODE[type(flag)]
                inherited["L.codes"] = codes + (new_code,)
                packed = proj.get("L.pk")
                if packed is not None:
                    inherited["L.pk"] = packed + pack_u32(new_code)
            if inherited:
                child._proj = inherited
        return child

    def drop_last(self) -> "LocalLog":
        if not self._entries:
            raise LogError("cannot drop from empty local log")
        child = LocalLog._make(self._entries[:-1])
        proj = self._proj
        if proj:
            inherited = {}
            for name in ("L.pkey", "L.frows", "L.codes"):
                rows = proj.get(name)
                if rows is not None:
                    inherited[name] = rows[:-1]
            packed = proj.get("L.pk")
            if packed is not None:
                inherited["L.pk"] = packed[:-4]
            if inherited:
                child._proj = inherited
        return child

    def remove(self, op: Op) -> "LocalLog":
        """Remove the entry for ``op`` (by id).

        The child node is memoized per removed id: UNPULL's criterion check
        and its construction both derive the same shrunk log, as do repeated
        enabledness probes of the same (immutable) state, so they all share
        one node — and therefore one set of cached projections."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        key = ("rm", op.op_id)
        child = proj.get(key)
        if child is None:
            idx = self.index_of(op)
            child = proj[key] = LocalLog._make(
                self._entries[:idx] + self._entries[idx + 1 :]
            )
            inherited = {}
            for name in ("L.pkey", "L.frows", "L.codes"):
                rows = proj.get(name)
                if rows is not None:
                    inherited[name] = rows[:idx] + rows[idx + 1 :]
            packed = proj.get("L.pk")
            if packed is not None:
                inherited["L.pk"] = packed[: 4 * idx] + packed[4 * idx + 4 :]
            if inherited:
                child._proj = inherited
        return child

    def set_flag(self, op: Op, flag: LocalFlag) -> "LocalLog":
        idx = self.index_of(op)
        entry = LocalEntry(self._entries[idx].op, flag)
        # Positions are untouched, so the child shares the parent's index.
        child = LocalLog._make(
            self._entries[:idx] + (entry,) + self._entries[idx + 1 :], self._index
        )
        proj = self._proj
        if proj:
            # Flag flips keep the op sequence, so the payload key and the
            # full op tuple carry over unchanged; flag rows patch one row.
            inherited = {}
            for name in ("L.pkey", "L.all"):
                got = proj.get(name)
                if got is not None:
                    inherited[name] = got
            frows = proj.get("L.frows")
            if frows is not None:
                row = entry.op
                inherited["L.frows"] = (
                    frows[:idx]
                    + ((row.method, row.args, row.ret, _FLAG_KIND[type(flag)]),)
                    + frows[idx + 1 :]
                )
            codes = proj.get("L.codes")
            if codes is not None:
                new_code = (codes[idx] & ~3) | _FLAG_CODE[type(flag)]
                inherited["L.codes"] = codes[:idx] + (new_code,) + codes[idx + 1 :]
                packed = proj.get("L.pk")
                if packed is not None:
                    inherited["L.pk"] = (
                        packed[: 4 * idx] + pack_u32(new_code) + packed[4 * idx + 4 :]
                    )
            if inherited:
                child._proj = inherited
        return child

    def prefix(self, length: int) -> "LocalLog":
        return LocalLog._make(self._entries[:length])

    # -- projections ``⌊L⌋_l`` ----------------------------------------------

    def pushed_ops(self) -> Tuple[Op, ...]:
        """``⌊L⌋_pshd`` — own operations currently in the global log."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("L.pshd")
        if got is None:
            got = proj["L.pshd"] = tuple(
                e.op for e in self._entries if e.is_pushed
            )
        return got

    def not_pushed_ops(self) -> Tuple[Op, ...]:
        """``⌊L⌋_npshd`` — own operations not yet pushed."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("L.npshd")
        if got is None:
            got = proj["L.npshd"] = tuple(
                e.op for e in self._entries if e.is_not_pushed
            )
        return got

    def pulled_ops(self) -> Tuple[Op, ...]:
        """``⌊L⌋_pld`` — operations pulled from other transactions."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("L.pld")
        if got is None:
            got = proj["L.pld"] = tuple(
                e.op for e in self._entries if e.is_pulled
            )
        return got

    def own_ops(self) -> Tuple[Op, ...]:
        """``⌊L⌋_{pshd|npshd}`` — all of the thread's own operations."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("L.own")
        if got is None:
            got = proj["L.own"] = tuple(
                e.op for e in self._entries if e.is_own
            )
        return got

    # The accessors below are the kernel's hottest projections, so they
    # hand-inline ``_projection`` to avoid allocating a closure per call
    # on the (overwhelmingly common) cache-hit path.

    def all_ops(self) -> Tuple[Op, ...]:
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("L.all")
        if got is None:
            got = proj["L.all"] = tuple(e.op for e in self._entries)
        return got

    def payload_key(self) -> Tuple[int, ...]:
        """The log's payload-class id sequence (cached) — the denotation
        cache's key for ``[[ℓ]]``."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("L.pkey")
        if got is None:
            got = proj["L.pkey"] = tuple(
                payload_class_id(e.op) for e in self._entries
            )
        return got

    def flag_rows(self) -> Tuple[Tuple, ...]:
        """Per-entry ``(method, args, ret, flag-kind)`` digests (cached) —
        the id-free rows the object-level view of thread state keys
        consumes.  Derivations inherit these rows incrementally (append
        extends, set_flag patches one row, remove slices one out)."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("L.frows")
        if got is None:
            got = proj["L.frows"] = tuple(
                (e.op.method, e.op.args, e.op.ret, _FLAG_KIND[type(e.flag)])
                for e in self._entries
            )
        return got

    def codes(self) -> Tuple[int, ...]:
        """Packed per-entry row codes ``(payload_class << 2) | kind`` —
        the integer column the Figure 5 rule predicates scan (cached,
        inherited incrementally like ``flag_rows``)."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("L.codes")
        if got is None:
            got = proj["L.codes"] = tuple(
                (payload_class_id(e.op) << 2) | _FLAG_CODE[type(e.flag)]
                for e in self._entries
            )
        return got

    def packed(self) -> bytes:
        """The row codes as little-endian uint32 bytes — the flag-row
        component of packed thread state keys (cached; byte hashes are
        cached by CPython, unlike tuple hashes)."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("L.pk")
        if got is None:
            got = proj["L.pk"] = pack_codes(self.codes())
        return got

    # -- relations with a global log ----------------------------------------

    def contained_in(self, global_log: "GlobalLog") -> bool:
        """``L ⊆ G`` restricted to own operations?  (CMT criterion (ii)
        checks ``⌊L⌋_npshd = ∅`` via this in conjunction with I_LG; we expose
        the raw subset check over *all* own entries.)"""
        gids = global_log.ids()
        return all(e.op.op_id in gids for e in self._entries if e.is_own)


EMPTY_LOCAL = LocalLog()


# ---------------------------------------------------------------------------
# Global log
# ---------------------------------------------------------------------------


class GlobalLog:
    """An immutable, persistent global log ``G : list (op × g)``.

    Same caching discipline as :class:`LocalLog`: entry objects are shared
    with derived logs, and the index/hash/projections are cached per node
    (``cmt`` preserves positions and shares the parent's index).
    """

    __slots__ = ("_entries", "_hash", "_index", "_proj")

    def __init__(self, entries: Iterable[GlobalEntry] = ()):
        self._entries: Tuple[GlobalEntry, ...] = tuple(entries)
        self._hash: Optional[int] = None
        self._index: Optional[dict] = None
        self._proj: Optional[dict] = None

    @classmethod
    def _make(
        cls, entries: Tuple[GlobalEntry, ...], index: Optional[dict] = None
    ) -> "GlobalLog":
        log = cls.__new__(cls)
        log._entries = entries
        log._hash = None
        log._index = index
        log._proj = None
        return log

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[GlobalEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> GlobalEntry:
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalLog):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        # Same scheme as LocalLog.__hash__: hash the memoized columns,
        # let the rare collision fall back to the deep entry compare.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(
                (self.packed(), tuple(self._positions()))
            )
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"({e.op.pretty()}, {e.flag!r})" for e in self)
        return f"GlobalLog({body})"

    @property
    def entries(self) -> Tuple[GlobalEntry, ...]:
        return self._entries

    def _positions(self) -> dict:
        index = self._index
        if index is None:
            index = self._index = {
                e.op.op_id: i for i, e in enumerate(self._entries)
            }
        return index

    def _projection(self, name: str, value_fn: Callable[[], Any]) -> Any:
        """Memoise ``value_fn()`` under ``name`` (namespaced ``"G."`` —
        see :meth:`LocalLog._projection` for the key conventions)."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get(name)
        if got is None:
            got = proj[name] = value_fn()
        return got

    def __contains__(self, op: Op) -> bool:
        return op.op_id in self._positions()

    def ids(self) -> frozenset:
        return self._projection("G.ids", lambda: frozenset(self._positions()))

    def entry_for(self, op: Op) -> Optional[GlobalEntry]:
        position = self._positions().get(op.op_id)
        return None if position is None else self._entries[position]

    def index_of(self, op: Op) -> int:
        position = self._positions().get(op.op_id)
        if position is None:
            raise LogError(f"operation {op.pretty()} not in global log")
        return position

    # -- construction ---------------------------------------------------------

    def append(self, op: Op, flag: GlobalFlag = UNCOMMITTED) -> "GlobalLog":
        positions = self._positions()
        if op.op_id in positions:
            raise LogError(f"duplicate operation id {op.op_id} in global log")
        index = dict(positions)
        index[op.op_id] = len(self._entries)
        child = GlobalLog._make(self._entries + (GlobalEntry(op, flag),), index)
        # Appends extend the parent's row projections by one element, so a
        # child's canonical-key rows need not be rebuilt from scratch.
        proj = self._proj
        if proj:
            inherited = {}
            rows = proj.get("G.rows")
            if rows is not None:
                inherited["G.rows"] = rows + (
                    (op.method, op.args, op.ret, isinstance(flag, Committed)),
                )
            idrow = proj.get("G.idrow")
            if idrow is not None:
                inherited["G.idrow"] = idrow + (op.op_id,)
            pkey = proj.get("G.pkey")
            if pkey is not None:
                inherited["G.pkey"] = pkey + (payload_class_id(op),)
            codes = proj.get("G.codes")
            if codes is not None:
                new_code = (payload_class_id(op) << 1) | (
                    1 if isinstance(flag, Committed) else 0
                )
                inherited["G.codes"] = codes + (new_code,)
                packed = proj.get("G.pk")
                if packed is not None:
                    inherited["G.pk"] = packed + pack_u32(new_code)
            if inherited:
                child._proj = inherited
        return child

    def remove(self, op: Op) -> "GlobalLog":
        """Remove the entry for ``op`` (by id); the child node is memoized
        per removed id (UNPUSH checks and constructions share it)."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        key = ("rm", op.op_id)
        child = proj.get(key)
        if child is None:
            idx = self.index_of(op)
            child = proj[key] = GlobalLog._make(
                self._entries[:idx] + self._entries[idx + 1 :]
            )
            inherited = {}
            for name in ("G.rows", "G.idrow", "G.pkey", "G.codes"):
                rows = proj.get(name)
                if rows is not None:
                    inherited[name] = rows[:idx] + rows[idx + 1 :]
            packed = proj.get("G.pk")
            if packed is not None:
                inherited["G.pk"] = packed[: 4 * idx] + packed[4 * idx + 4 :]
            if inherited:
                child._proj = inherited
        return child

    # -- projections ``⌊G⌋_g`` -------------------------------------------------

    def committed_ops(self) -> Tuple[Op, ...]:
        """``⌊G⌋_gCmt``."""
        return self._projection(
            "G.gCmt", lambda: tuple(e.op for e in self._entries if e.is_committed)
        )

    def uncommitted_ops(self) -> Tuple[Op, ...]:
        """``⌊G⌋_gUCmt``."""
        return self._projection(
            "G.gUCmt",
            lambda: tuple(e.op for e in self._entries if not e.is_committed),
        )

    # Hand-inlined hot projections (no closure allocation on cache hits).

    def all_ops(self) -> Tuple[Op, ...]:
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("G.all")
        if got is None:
            got = proj["G.all"] = tuple(e.op for e in self._entries)
        return got

    def payload_rows(self) -> Tuple[Tuple, ...]:
        """Per-entry ``(method, args, ret, committed?)`` digests (cached) —
        the id-free rows the object-level view of state keys consumes."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("G.rows")
        if got is None:
            got = proj["G.rows"] = tuple(
                (e.op.method, e.op.args, e.op.ret, e.is_committed)
                for e in self._entries
            )
        return got

    def id_row(self) -> Tuple[int, ...]:
        """Per-entry operation ids, in log order (cached)."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("G.idrow")
        if got is None:
            got = proj["G.idrow"] = tuple(e.op.op_id for e in self._entries)
        return got

    def payload_key(self) -> Tuple[int, ...]:
        """The log's payload-class id sequence (cached)."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("G.pkey")
        if got is None:
            got = proj["G.pkey"] = tuple(
                payload_class_id(e.op) for e in self._entries
            )
        return got

    def codes(self) -> Tuple[int, ...]:
        """Packed per-entry row codes ``(payload_class << 1) | committed``
        — the integer column the rule predicates scan (cached, inherited
        incrementally: append extends, remove slices, commit patches)."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("G.codes")
        if got is None:
            got = proj["G.codes"] = tuple(
                (payload_class_id(e.op) << 1) | (1 if e.is_committed else 0)
                for e in self._entries
            )
        return got

    def packed(self) -> bytes:
        """The row codes as little-endian uint32 bytes — the global-log
        component of packed machine state keys (cached)."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        got = proj.get("G.pk")
        if got is None:
            got = proj["G.pk"] = pack_codes(self.codes())
        return got

    def own_bytes(self, own: frozenset) -> bytes:
        """One byte per entry, 1 where the entry belongs to a thread
        owning the id set ``own`` (cached per set) — the ownership row of
        packed invariant memo keys."""
        proj = self._proj
        if proj is None:
            proj = self._proj = {}
        key = ("ownbp", own)
        got = proj.get(key)
        if got is None:
            got = proj[key] = bytes(
                1 if e.op.op_id in own else 0 for e in self._entries
            )
        return got

    # -- lifted set operations (order from self) --------------------------------

    def minus(self, ops: Iterable[Op]) -> "GlobalLog":
        """``G ∖ ops`` — drop (by id) every member of ``ops``; order kept."""
        drop = {o.op_id for o in ops}
        return GlobalLog._make(
            tuple(e for e in self._entries if e.op.op_id not in drop)
        )

    def intersect_ops(self, ops: Iterable[Op]) -> Tuple[Op, ...]:
        """``G ∩ ops`` as an operation sequence, ordered as in ``G``."""
        keep = {o.op_id for o in ops}
        return tuple(e.op for e in self._entries if e.op.op_id in keep)

    def commit(self, local: LocalLog) -> "GlobalLog":
        """The ``cmt(G, L, G')`` transformer from Figure 5.

        ``G'`` equals ``G`` except every operation that ``L`` pushed is
        flagged ``gCmt``.  Raises if some pushed entry is missing from ``G``
        (an ``I_LG`` violation — a driver bug).
        """
        pushed = {o.op_id for o in local.pushed_ops()}
        present = self.ids()
        missing = pushed - present
        if missing:
            raise LogError(f"cmt: pushed operations {sorted(missing)} not in G")
        new_entries = []
        for e in self._entries:
            if e.op.op_id in pushed:
                new_entries.append(GlobalEntry(e.op, COMMITTED))
            else:
                new_entries.append(e)
        # Flag flips keep every position, so the index carries over — and
        # so do the id/payload projections (flags are not part of them).
        child = GlobalLog._make(tuple(new_entries), self._index)
        proj = self._proj
        if proj:
            inherited = {
                name: proj[name]
                for name in ("G.idrow", "G.pkey")
                if name in proj
            }
            codes = proj.get("G.codes")
            if codes is not None:
                positions = self._positions()
                flips = {positions[i] for i in pushed}
                new_codes = tuple(
                    c | 1 if i in flips else c for i, c in enumerate(codes)
                )
                inherited["G.codes"] = new_codes
                if proj.get("G.pk") is not None:
                    inherited["G.pk"] = pack_codes(new_codes)
            if inherited:
                child._proj = inherited
        return child

    def committed_only(self) -> "GlobalLog":
        """``filter (λ(op,g). g = gCmt) G`` — used by the CMT simulation case."""
        return GlobalLog._make(
            tuple(e for e in self._entries if e.is_committed)
        )


EMPTY_GLOBAL = GlobalLog()


def ops_minus(ops: Iterable[Op], drop: Iterable[Op]) -> Tuple[Op, ...]:
    """Sequence difference by id, order preserved from ``ops``."""
    drop_ids = {o.op_id for o in drop}
    return tuple(o for o in ops if o.op_id not in drop_ids)
