"""Packed key codec: byte-level state keys and their object-level twins.

The packed kernel re-represents the incremental kernel's state keys as
byte strings over interned small-int codes (see DESIGN.md, "Packed
kernel").  This module is the single place that knows the bit layout;
everything else goes through the helpers here.

Layout
------
* **Local row code** (uint32 LE): ``(payload_class_id << 2) | kind`` with
  kind ``0 = npshd``, ``1 = pshd``, ``2 = pld`` — one code per local-log
  entry, in log order.
* **Global row code** (uint32 LE): ``(payload_class_id << 1) | committed``
  — one code per global-log entry, in log order.
* **Owner row** (int32 LE): owning thread id per global entry, ``-1`` when
  unowned (committed or foreign).
* **Thread key** (bytes): ``pack("<ii", tid, code_state_id) + local_codes``.
* **State key**: ``(tuple_of_thread_key_bytes, global_codes, owner_row)`` —
  the same three-part shape as the PR-2 object-level key;
  :meth:`repro.core.machine.Machine.successor_keys` derives successor
  keys by splicing one thread digest and patching the global columns.

Because every code round-trips through the intern tables in
:mod:`repro.core.ops`, packed keys decode back to the PR-2 object-level
structure exactly.  Intern ids are process-local: they number payloads
and code states in first-seen order, so packed keys compare meaningfully
only within the process that minted them.  One exploration runs in one
process, so the POR canonicalizer (:mod:`repro.checking.reduction`)
ranks rows and symmetry candidates by their codes directly.
"""

from __future__ import annotations

from array import array
from struct import Struct
from typing import Any, Iterable, Tuple

from repro.core.ops import (
    code_state_id,
    code_state_of,
    payload_class_of,
    payload_of,
)

# Flag kinds, in the packed order.  KIND_NAMES inverts to the PR-2 flag-row
# strings so decoded keys are byte-for-byte the old object-level tuples.
NPSHD = 0
PSHD = 1
PLD = 2
KIND_NAMES = ("npshd", "pshd", "pld")
KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}

_U32 = Struct("<I")
_I32 = Struct("<i")
_TID_CS = Struct("<ii")

pack_u32 = _U32.pack
pack_i32 = _I32.pack
pack_tid_cs = _TID_CS.pack
unpack_tid_cs = _TID_CS.unpack

# The codec assumes 4-byte array items for the bulk paths; this holds on
# every platform CPython supports, but fail loudly rather than corrupt keys.
if array("I").itemsize != 4 or array("i").itemsize != 4:  # pragma: no cover
    raise RuntimeError("packed kernel requires 4-byte array('I')/array('i')")


def pack_codes(codes: Iterable[int]) -> bytes:
    """Pack an iterable of uint32 row codes into little-endian bytes."""
    return array("I", codes).tobytes()


def unpack_codes(data: bytes) -> "array[int]":
    """Unpack uint32 row-code bytes back into an integer array."""
    return array("I", data)


def pack_owners(owners: Iterable[int]) -> bytes:
    """Pack an iterable of int32 owner tids (``-1`` = unowned)."""
    return array("i", owners).tobytes()


def unpack_owners(data: bytes) -> "array[int]":
    """Unpack int32 owner-row bytes back into an integer array."""
    return array("i", data)


# ---------------------------------------------------------------------------
# Decoding packed keys back to PR-2 object-level keys
# ---------------------------------------------------------------------------


def decode_thread_key(tkey: bytes) -> Tuple[Any, ...]:
    """Decode one packed thread key to ``(tid, code, stack, flag_rows)``."""
    tid, csid = unpack_tid_cs(tkey[:8])
    code, stack = code_state_of(csid)
    frows = []
    for c in array("I", tkey[8:]):
        method, args, ret = payload_of(c >> 2)
        frows.append((method, args, ret, KIND_NAMES[c & 3]))
    return (tid, code, stack, tuple(frows))


def decode_global_rows(gpacked: bytes) -> Tuple[Tuple[Any, ...], ...]:
    """Decode packed global codes to ``((method, args, ret, committed), ...)``."""
    rows = []
    for c in array("I", gpacked):
        method, args, ret = payload_of(c >> 1)
        rows.append((method, args, ret, bool(c & 1)))
    return tuple(rows)


def decode_state_key(skey: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Decode a packed machine state key to the PR-2 object-level shape
    ``(thread_keys, payload_rows, owner_row)``."""
    tkeys, gpacked, opacked = skey
    return (
        tuple(decode_thread_key(tb) for tb in tkeys),
        decode_global_rows(gpacked),
        tuple(array("i", opacked)),
    )


# ---------------------------------------------------------------------------
# Encoding object-level keys into packed keys
# ---------------------------------------------------------------------------


def encode_thread_key(tkey: Tuple[Any, ...]) -> bytes:
    """Encode ``(tid, code, stack, flag_rows)`` to packed thread-key bytes."""
    tid, code, stack, frows = tkey
    header = pack_tid_cs(tid, code_state_id(code, stack))
    if not frows:
        return header
    kinds = KIND_CODES
    return header + array(
        "I",
        [
            (payload_class_of(method, args, ret) << 2) | kinds[kind]
            for method, args, ret, kind in frows
        ],
    ).tobytes()


def encode_state_key(skey: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Encode an object-level ``(thread_keys, payload_rows, owner_row)``."""
    tkeys, rows, owner_row = skey
    return (
        tuple(encode_thread_key(tb) for tb in tkeys),
        array(
            "I",
            [
                (payload_class_of(method, args, ret) << 1) | (1 if committed else 0)
                for method, args, ret, committed in rows
            ],
        ).tobytes(),
        array("i", owner_row).tobytes(),
    )


# ---------------------------------------------------------------------------
# Reference key (the PR-2 object-level digest, recomputed from scratch)
# ---------------------------------------------------------------------------


def reference_state_key(machine: Any) -> Tuple[Any, ...]:
    """The PR-2 object-level state key, recomputed from machine contents.

    Ignores every cache and every packed column: walks the live objects
    the way the incremental kernel's full-path ``state_key`` did.  The
    cross-representation identity tests and the ``repro perf`` packed tier
    assert ``decode_state_key(machine.state_key()) == reference_state_key(machine)``.
    """
    owners: dict = {}
    for thread in machine.threads:
        for op in thread.local.own_ops():
            owners[op.op_id] = thread.tid
    global_log = machine.global_log
    return (
        tuple(
            (t.tid, t.code, t.stack, t.local.flag_rows()) for t in machine.threads
        ),
        global_log.payload_rows(),
        tuple(owners.get(i, -1) for i in global_log.id_row()),
    )


def packed_stats(machine: Any = None) -> dict:
    """``packed.*`` gauges: the packed kernel's memo populations.

    Pass an exploration's root :class:`~repro.core.machine.Machine` —
    the successor-recipe and emission-plan memos live on the root and are
    shared (by reference) with every derived state, so the root's sizes
    are the run's.  Without a machine the gauges read zero.
    """
    if machine is None:
        return {"packed.recipes": 0, "packed.plans": 0}
    return {
        "packed.recipes": len(machine._skmemo),
        "packed.plans": len(machine._skplans),
    }
