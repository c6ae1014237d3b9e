"""Seeded mutation over the three corpus-entry dimensions.

Programs, schedule prefixes and fault plans are mutated independently —
one dimension per mutation, chosen by the seeded PRNG — so a shrunk
witness stays attributable ("this failure needed the fault plan, not the
programs").  All program mutations preserve the invariants the rest of
the stack assumes: straight-line ``tx`` blocks (``resolve_steps`` works),
well-formed per §3, at least one call per transaction, and bounded size
(the oracle's serializability/opacity/atomic-cover checks are exhaustive
only on small scopes — a mutator that grows entries past the exhaustive
bound would silently weaken the oracle, the opposite of coverage).

The call catalogue is keyed by spec-registry name and mirrors the
workload generators' key shapes (``("k", i)``, ``("key", i)``,
``("e", i)``, ``("acct", i)``) so mutated programs contend with seeded
ones instead of living in a disjoint keyspace.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional, Tuple

from repro.core.language import Call, Tx, call, tx
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.fuzz.corpus import CorpusEntry
from repro.tm.base import TMAlgorithm

#: hard size bounds: the oracle's exhaustive checks cap at 6–7 commits
MAX_PROGRAMS = 6
MAX_OPS_PER_PROGRAM = 5
MAX_PLAN_EVENTS = 6
MAX_PREFIX = 24
KEYSPACE = 4


def _key(rng: random.Random, shape: str) -> Tuple[str, int]:
    return (shape, rng.randrange(KEYSPACE))


def _spec_calls(rng: random.Random, spec: str) -> Call:
    """One random call valid for ``spec``."""
    if spec == "memory":
        if rng.random() < 0.5:
            return call("read", _key(rng, "k"))
        return call("write", _key(rng, "k"), rng.randrange(100))
    if spec == "counter":
        return call(rng.choice(["inc", "inc", "dec", "get"]))
    if spec == "kvmap":
        roll = rng.random()
        if roll < 0.4:
            return call("get", _key(rng, "key"))
        if roll < 0.8:
            return call("put", _key(rng, "key"), rng.randrange(100))
        return call("remove", _key(rng, "key"))
    if spec == "set":
        roll = rng.random()
        if roll < 0.4:
            return call("contains", _key(rng, "e"))
        if roll < 0.75:
            return call("add", _key(rng, "e"))
        return call("remove", _key(rng, "e"))
    if spec == "bank":
        roll = rng.random()
        if roll < 0.4:
            return call("balance", _key(rng, "acct"))
        if roll < 0.7:
            return call("deposit", _key(rng, "acct"), 1 + rng.randrange(3))
        return call("withdraw", _key(rng, "acct"), 1 + rng.randrange(3))
    raise KeyError(f"no call catalogue for spec {spec!r}")


#: specs the mutators (and hence the fuzzer) know how to grow programs for
FUZZABLE_SPECS = ("memory", "counter", "kvmap", "set", "bank")


def _calls_of(program: Tx) -> List[Call]:
    return TMAlgorithm.resolve_steps(program)


# -- program mutations ---------------------------------------------------------


def _mutate_programs(
    rng: random.Random, entry: CorpusEntry
) -> Tuple[Tx, ...]:
    programs = [list(_calls_of(p)) for p in entry.programs]
    move = rng.randrange(5)
    if move == 0 and len(programs) < MAX_PROGRAMS:
        # resize (corpus level): add a fresh small transaction
        programs.append(
            [_spec_calls(rng, entry.spec) for _ in range(1 + rng.randrange(3))]
        )
    elif move == 1 and len(programs) > 1:
        # resize (corpus level): drop one transaction
        programs.pop(rng.randrange(len(programs)))
    elif move == 2:
        # retype: replace one call with a fresh one of the same spec
        target = programs[rng.randrange(len(programs))]
        target[rng.randrange(len(target))] = _spec_calls(rng, entry.spec)
    elif move == 3:
        # resize (transaction level): insert or delete one call
        target = programs[rng.randrange(len(programs))]
        if len(target) >= MAX_OPS_PER_PROGRAM or (
            len(target) > 1 and rng.random() < 0.5
        ):
            target.pop(rng.randrange(len(target)))
        else:
            target.insert(
                rng.randrange(len(target) + 1), _spec_calls(rng, entry.spec)
            )
    else:
        # splice: graft a slice of one transaction into another
        source = programs[rng.randrange(len(programs))]
        target = programs[rng.randrange(len(programs))]
        start = rng.randrange(len(source))
        piece = source[start : start + 1 + rng.randrange(2)]
        at = rng.randrange(len(target) + 1)
        target[at:at] = piece
        del target[MAX_OPS_PER_PROGRAM:]
    return tuple(tx(*calls) for calls in programs if calls)


# -- schedule-prefix mutations -------------------------------------------------


def _mutate_prefix(
    rng: random.Random, entry: CorpusEntry
) -> Tuple[Optional[int], ...]:
    prefix = list(entry.choice_prefix)
    jobs = max(1, len(entry.programs))
    move = rng.randrange(3)
    if move == 0 and prefix:
        # truncate: keep a random-length head (shrinking's best friend)
        prefix = prefix[: rng.randrange(len(prefix))]
    elif move == 1 and len(prefix) < MAX_PREFIX:
        # extend: append a burst of choices biased toward one job
        favourite = rng.randrange(jobs)
        for _ in range(1 + rng.randrange(4)):
            prefix.append(
                favourite if rng.random() < 0.7 else rng.randrange(jobs)
            )
    elif prefix:
        # flip: retarget one recorded choice
        prefix[rng.randrange(len(prefix))] = rng.randrange(jobs)
    else:
        prefix = [rng.randrange(jobs)]
    return tuple(prefix[:MAX_PREFIX])


# -- fault-plan mutations ------------------------------------------------------


def _random_event(rng: random.Random, jobs: int) -> FaultEvent:
    kind = rng.choice(tuple(FaultKind))
    return FaultEvent(
        kind=kind,
        job=rng.randrange(jobs) if rng.random() < 0.7 else None,
        after=rng.randrange(6),
        count=1 + rng.randrange(2),
        duration=1 + rng.randrange(4) if kind is FaultKind.STALL else 0,
    )


def _mutate_plan(rng: random.Random, entry: CorpusEntry) -> FaultPlan:
    events = list(entry.plan.events)
    jobs = max(1, len(entry.programs))
    move = rng.randrange(4)
    if move == 0 and len(events) < MAX_PLAN_EVENTS:
        events.insert(rng.randrange(len(events) + 1), _random_event(rng, jobs))
    elif move == 1 and events:
        events.pop(rng.randrange(len(events)))
    elif move == 2 and events:
        index = rng.randrange(len(events))
        data = events[index].to_dict()
        field = rng.choice(["after", "count", "job"])
        if field == "job":
            data["job"] = rng.randrange(jobs) if rng.random() < 0.7 else None
        else:
            data[field] = max(0 if field == "after" else 1, rng.randrange(6))
        events[index] = FaultEvent.from_dict(data)
    elif move == 3:
        events = []  # clear: the fault-free variant of this entry
    else:
        events.append(_random_event(rng, jobs))
    return FaultPlan(seed=entry.plan.seed, events=tuple(events))


# -- durable-segment byte mutations --------------------------------------------

#: the corruption shapes :func:`mutate_segment_bytes` can produce
SEGMENT_MUTATIONS: Tuple[str, ...] = (
    "truncate", "torn_append", "bitflip", "garbage_tail",
)


def mutate_segment_bytes(
    data: bytes, rng: random.Random, kind: Optional[str] = None
) -> Tuple[bytes, str]:
    """One seeded corruption of a durable segment file's bytes.

    The durable recovery oracle (``repro.durable.chaos`` and the
    hypothesis property in ``tests/test_durable_store.py``) holds that
    for *any* of these mutations, opening the segment either refuses
    (:class:`~repro.durable.records.SegmentCorruption`) or recovers a
    strict prefix of the original records — never silently altered or
    reordered data.

    * ``truncate`` — drop 1..N trailing bytes (a crash mid-``write``);
    * ``torn_append`` — append a frame header whose announced length
      exceeds the bytes present (a crash between header and payload);
    * ``bitflip`` — flip one bit anywhere (media corruption);
    * ``garbage_tail`` — append non-frame noise (a recycled block).
    """
    if kind is None:
        kind = rng.choice(SEGMENT_MUTATIONS)
    if kind == "truncate" and data:
        return data[: rng.randrange(len(data))], kind
    if kind == "torn_append":
        from repro.durable.records import RECORD_MAGIC

        length = 64 + rng.randrange(1 << 12)
        header = RECORD_MAGIC + length.to_bytes(4, "little") + bytes(
            rng.randrange(256) for _ in range(4)
        )
        partial = bytes(rng.randrange(256) for _ in range(rng.randrange(16)))
        return data + header + partial, kind
    if kind == "bitflip" and data:
        at = rng.randrange(len(data))
        flipped = data[at] ^ (1 << rng.randrange(8))
        return data[:at] + bytes([flipped]) + data[at + 1 :], kind
    # garbage_tail (and the empty-input fallback for truncate/bitflip)
    noise = bytes(rng.randrange(256) for _ in range(1 + rng.randrange(64)))
    return data + noise, "garbage_tail"


# -- top level -----------------------------------------------------------------

_DIMENSIONS: Tuple[str, ...] = ("programs", "programs", "prefix", "plan", "seed")


def mutate_entry(
    entry: CorpusEntry, rng: random.Random, name: Optional[str] = None
) -> CorpusEntry:
    """One mutation of ``entry`` along one dimension, deterministically
    drawn from ``rng``.  Program mutations are weighted double: the
    program space is where new criterion outcomes mostly live."""
    dimension = rng.choice(_DIMENSIONS)
    if dimension == "programs":
        mutated = replace(entry, programs=_mutate_programs(rng, entry))
    elif dimension == "prefix":
        mutated = replace(entry, choice_prefix=_mutate_prefix(rng, entry))
    elif dimension == "plan":
        mutated = replace(entry, plan=_mutate_plan(rng, entry))
    else:
        mutated = replace(entry, seed=rng.randrange(1 << 16))
    if name is None:
        name = f"mut-{mutated.fingerprint()[:10]}"
    return mutated.renamed(name)
