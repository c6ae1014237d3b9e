"""Key routing, seed derivation and the deterministic 2PC commit order.

Everything position-dependent about the sharded daemon is a pure function
in this module, so a whole-daemon run is replayable from ``(root seed,
workload)`` plus the per-shard arrival orders:

* **shard placement** (:func:`shard_of`) — CRC32 of ``"space:key"``,
  *not* Python's randomized ``hash``, so clients, the gateway and every
  shard process agree across interpreter boundaries and runs;
* **per-shard seeds** (:func:`shard_seed`) — each shard's scheduler,
  recovery jitter and any other seeded component derive from one root
  seed via BLAKE2b over ``(seed, shard)``, never from ad-hoc arithmetic
  (the chaos/fuzz determinism contract, extended to the daemon);
* **2PC commit order** (:func:`commit_order`) — cross-shard transactions
  commit on their participant shards in a *predefined* order: shards are
  ranked by BLAKE2b over ``(seed, txn_id, shard)``.  The order depends
  only on the root seed and the transaction id — not on prepare response
  timing — which is what makes replays reproduce the same global commit
  interleaving (the Saad et al. predefined-order framing, PAPERS.md).
"""

from __future__ import annotations

import hashlib
import math
import zlib
from typing import Any, List, Optional, Sequence, Tuple

#: The spec spaces a shard serves, each a component of its ProductSpec.
#: Keyed spaces (kvmap, bank) hash-shard per key; unkeyed spaces
#: (counter, queue) have a single global state, so the whole space lives
#: on the one shard :func:`shard_of` pins it to.
SPACES: Tuple[str, ...] = ("kvmap", "counter", "bank", "queue")

#: space → method → the kinds of its arguments, key first (the arity is
#: their count; ``_KINDS`` says what each kind admits).  The daemon
#: validates requests against this table before anything touches a
#: machine, so a malformed request is a protocol error, never a
#: mid-transaction SpecError or TypeError.
METHODS = {
    "kvmap": {"put": ("key", "scalar"), "get": ("key",), "remove": ("key",),
              "contains_key": ("key",)},
    "counter": {"inc": (), "dec": (), "add": ("int",), "get": ()},
    "bank": {"deposit": ("key", "amount"), "withdraw": ("key", "amount"),
             "balance": ("key",)},
    "queue": {"enq": ("scalar",), "deq": (), "peek": (), "size": ()},
}

#: keyed spaces route by the first argument; unkeyed ones by space name
KEYED_SPACES = frozenset({"kvmap", "bank"})


class ProtocolError(ValueError):
    """A request violates the wire contract (unknown space/method, wrong
    arity, an argument of the wrong kind) — rejected before execution."""


def _int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: argument kind → (test, what a value of that kind must be)
_KINDS = {
    "key": (lambda v: _int(v) or isinstance(v, str), "a JSON string or integer"),
    "scalar": (
        lambda v: v is None or isinstance(v, (str, int))
        or (isinstance(v, float) and math.isfinite(v)),
        "a JSON scalar (string, integer, finite number, boolean or null)",
    ),
    "int": (_int, "an integer"),
    "amount": (lambda v: _int(v) and v > 0, "a positive integer"),
}


def validate_op(op: Sequence) -> Tuple[str, str, Tuple]:
    """``["kvmap", "put", k, v]`` → ``("kvmap", "put", (k, v))`` or raise."""
    if not isinstance(op, (list, tuple)) or len(op) < 2:
        raise ProtocolError(f"op must be [space, method, args...]; got {op!r}")
    space, method, args = op[0], op[1], tuple(op[2:])
    table = METHODS.get(space) if isinstance(space, str) else None
    if table is None:
        raise ProtocolError(f"unknown space {space!r} (known: {sorted(METHODS)})")
    if not isinstance(method, str) or method not in table:
        raise ProtocolError(
            f"unknown method {space}.{method} (known: {sorted(table)})"
        )
    kinds = table[method]
    if len(args) != len(kinds):
        raise ProtocolError(
            f"{space}.{method} takes {len(kinds)} argument(s), got {len(args)}"
        )
    for position, (kind, value) in enumerate(zip(kinds, args)):
        accepts, expected = _KINDS[kind]
        if not accepts(value):
            raise ProtocolError(
                f"{space}.{method} argument {position} must be {expected}, "
                f"got {type(value).__name__} {value!r:.40}"
            )
    return space, method, args


def shard_of(space: str, key: Optional[Any], shards: int) -> int:
    """The shard owning ``key`` in ``space`` (or the whole space, for
    unkeyed spaces).  Stable across processes and runs."""
    token = f"{space}:{key!r}" if key is not None else f"{space}:*"
    return zlib.crc32(token.encode("utf-8")) % max(1, shards)


def op_shard(op: Sequence, shards: int) -> int:
    """Routing shard of one validated wire op."""
    space, _method, args = validate_op(op)
    key = args[0] if space in KEYED_SPACES else None
    return shard_of(space, key, shards)


def split_by_shard(ops: Sequence[Sequence], shards: int) -> dict:
    """``{shard_index: [wire ops]}`` preserving per-shard program order."""
    routed: dict = {}
    for op in ops:
        routed.setdefault(op_shard(op, shards), []).append(op)
    return routed


def _digest_int(*parts: Any) -> int:
    token = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(token, digest_size=8).digest(), "big")


def shard_seed(root_seed: int, shard_index: int) -> int:
    """The one seed-derivation rule of the service layer: every seeded
    per-shard component (scheduler, recovery jitter) derives from
    ``(root_seed, shard_index)`` through this function."""
    return _digest_int("serve-shard", root_seed, shard_index) & 0x7FFFFFFF


def make_shard_scheduler(name: str, root_seed: int, shard_index: int):
    """Per-shard scheduler via the one :func:`~repro.runtime.scheduler.
    make_scheduler` factory, seeded by :func:`shard_seed` — the ISSUE 8
    satellite routing all daemon seeding through one root."""
    from repro.runtime.scheduler import make_scheduler

    return make_scheduler(name, shard_seed(root_seed, shard_index))


def commit_order(root_seed: int, txn_id: str, shards: Sequence[int]) -> List[int]:
    """Predefined 2PC commit order for ``txn_id`` over participant
    ``shards`` — a pure function of ``(root_seed, txn_id, shard)``, so
    replayed runs commit cross-shard transactions in the same order
    regardless of prepare-response timing."""
    return sorted(shards, key=lambda s: (_digest_int("serve-2pc", root_seed, txn_id, s), s))
