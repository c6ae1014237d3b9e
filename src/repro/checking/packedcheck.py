"""Packed-kernel identity harness: the packed fast path vs the object model.

The packed kernel (``repro.core.packed``) re-represents state keys as
interned integer columns and derives successor keys by byte patching;
its correctness contract is *representation identity*: at every reachable
state, decoding the packed key must yield exactly the object-level key
the PR-2 kernel would have computed from the live machine
(:func:`repro.core.packed.reference_state_key`).

This module walks machines through their actual rule expansion — the same
batched key-first path the model checker uses — and checks that contract
at every visited state.  It backs both the ``repro perf`` packed tier and
the property tests in ``tests/test_packed_kernel.py``.

It also holds :func:`reference_canonical`, the POR canonicalizer computed
the slow way — decode to the object level, normalize, encode — ranked by
``repr``, so it does not depend on intern order.  The packed
:meth:`repro.checking.reduction.Reducer.canonical` ranks by intern code
and so picks other representatives, but it must partition keys into
exactly the same classes (``tests/test_reduction.py``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.checking.model_checker import ExploreOptions, _Node, _successors
from repro.core.language import Code, methods_of
from repro.core.machine import Machine
from repro.core.ops import Op
from repro.core.packed import (
    decode_state_key,
    encode_state_key,
    reference_state_key,
    unpack_codes,
    unpack_tid_cs,
)
from repro.core.precongruence import trace_normal_form
from repro.core.spec import MemoizedMovers, SequentialSpec


def initial_node(spec: SequentialSpec, programs: Sequence[Code]) -> _Node:
    """The exploration's start state: one spawned thread per program."""
    machine = Machine(spec)
    for program in programs:
        machine, _ = machine.spawn(program)
    return _Node(machine, ())


def identity_mismatch(machine: Machine) -> Optional[str]:
    """``None`` when the machine's packed key decodes to exactly the
    object-level reference key, else a description of the divergence."""
    packed = decode_state_key(machine.state_key())
    reference = reference_state_key(machine)
    if packed == reference:
        return None
    return f"packed={packed!r} != reference={reference!r}"


def _key_codes(skey: Tuple, payloads: Set[int], code_states: Set[int]) -> None:
    """Add the payload classes and code states packed state key ``skey``
    mentions to ``payloads`` and ``code_states``."""
    tkeys, gpacked, _ = skey
    for tkey in tkeys:
        code_states.add(unpack_tid_cs(tkey[:8])[1])
        payloads.update(code >> 2 for code in unpack_codes(tkey[8:]))
    payloads.update(code >> 1 for code in unpack_codes(gpacked))


def walk_identity(
    spec: SequentialSpec,
    programs: Sequence[Code],
    steps: int,
    seed: int,
    options: Optional[ExploreOptions] = None,
) -> Dict[str, object]:
    """One seeded random walk of ``steps`` rule applications, checking
    representation identity at every state (including the initial one).

    Successors come from the checker's own key-first expansion with an
    empty ``seen`` set, so every probe runs the packed derivation *and*
    constructs the successor machine — exactly the pairing the identity
    contract is about.  Returns a stats dict; ``mismatches`` must be
    empty for a healthy kernel, and ``payload_classes``/``code_states``
    are the intern codes the visited keys mention.
    """
    if options is None:
        options = ExploreOptions(
            max_pulled_per_thread=sum(len(methods_of(p)) for p in programs)
        )
    rng = random.Random(seed)
    node = initial_node(spec, programs)
    mismatches = []
    rule_counts: Dict[str, int] = {}
    payloads: Set[int] = set()
    code_states: Set[int] = set()
    _key_codes(node.machine.state_key(), payloads, code_states)
    checked = 1
    first = identity_mismatch(node.machine)
    if first is not None:
        mismatches.append(f"initial state: {first}")
    for step in range(steps):
        moves = [
            (rule, successor)
            for rule, _, successor in _successors(node, options, seen=set())
            if successor is not None
        ]
        if not moves:
            break
        rule, node = moves[rng.randrange(len(moves))]
        rule_counts[rule] = rule_counts.get(rule, 0) + 1
        _key_codes(node.machine.state_key(), payloads, code_states)
        checked += 1
        found = identity_mismatch(node.machine)
        if found is not None:
            mismatches.append(f"step {step} ({rule}): {found}")
            break
    return {
        "checked_states": checked,
        "rule_counts": dict(sorted(rule_counts.items())),
        "mismatches": mismatches,
        "payload_classes": payloads,
        "code_states": code_states,
    }


def sweep_identity(
    scopes: Dict[str, Tuple[type, Sequence[Code]]],
    steps: int = 60,
    walks: int = 3,
    seed: int = 0,
) -> Dict[str, object]:
    """:func:`walk_identity` over every scope, several seeds each.

    Returns the per-scope ``scopes`` rows and ``intern_tables``: how many
    distinct payload classes and code states the visited keys mention.
    That counts what these walks reached, whatever else the process has
    interned before (the intern tables themselves are process-wide)."""
    results: Dict[str, Dict[str, object]] = {}
    payloads: Set[int] = set()
    code_states: Set[int] = set()
    for name, (spec_cls, programs) in scopes.items():
        checked = 0
        mismatches = []
        for walk in range(walks):
            stats = walk_identity(
                spec_cls(), programs, steps, seed=seed + walk
            )
            checked += stats["checked_states"]  # type: ignore[operator]
            mismatches.extend(stats["mismatches"])  # type: ignore[arg-type]
            payloads |= stats["payload_classes"]  # type: ignore[operator]
            code_states |= stats["code_states"]  # type: ignore[operator]
        results[name] = {
            "checked_states": checked,
            "mismatches": mismatches,
        }
    return {
        "scopes": results,
        "intern_tables": {
            "intern.payload_classes": len(payloads),
            "intern.code_states": len(code_states),
        },
    }


def reference_canonical(
    nkey: Tuple, movers: MemoizedMovers, perms: List[Dict[int, int]]
) -> Tuple:
    """The canonical key of packed node key ``nkey``, recomputed with no
    memo: decode to object-level rows, put each thread's local log and
    the global log in trace normal form under both-mover independence
    (ranked by ``repr``; own local entries never commute with each
    other), sort the commit tuple, take the ``repr``-least image under
    the tid permutations ``perms``, and encode the result."""

    def commute(row1: Tuple, row2: Tuple) -> bool:
        return movers.commutes(Op(*row1[:3], -1), Op(*row2[:3], -2))

    def local_commute(row1: Tuple, row2: Tuple) -> bool:
        return (row1[3] == "pld" or row2[3] == "pld") and commute(row1, row2)

    def canon_global(rows: Tuple, owners: Tuple) -> Tuple:
        items = trace_normal_form(
            tuple(zip(rows, owners)), lambda a, b: commute(a[0], b[0]), repr
        )
        return tuple(row for row, _ in items), tuple(owner for _, owner in items)

    (tkeys, rows, owners), committed = decode_state_key(nkey[0]), nkey[1]
    tkeys = tuple(
        (tid, code, stack, trace_normal_form(frows, local_commute, repr))
        for tid, code, stack, frows in tkeys
    )
    rows, owners = canon_global(rows, owners)
    best = ((tkeys, rows, owners), tuple(sorted(committed)))
    best_rank = repr(best)
    for perm in perms:
        permuted = tuple(sorted(
            ((perm.get(tk[0], tk[0]),) + tk[1:] for tk in tkeys),
            key=lambda tk: tk[0],
        ))
        plog = canon_global(rows, tuple(perm.get(o, o) for o in owners))
        candidate = (
            (permuted, *plog), tuple(sorted(perm.get(t, t) for t in committed))
        )
        rank = repr(candidate)
        if rank < best_rank:
            best, best_rank = candidate, rank
    return (encode_state_key(best[0]), best[1])
