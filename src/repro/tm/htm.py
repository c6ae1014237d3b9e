"""Simulated best-effort hardware transactional memory.

The paper applies PUSH/PULL to HTMs (Intel Haswell RTM, IBM zEC12); we
have no transactional hardware, so this module simulates the essential
behaviours the model cares about (cf. DESIGN.md substitution table):

* **lazy publication** — speculative state is buffered (APP only) and
  becomes visible atomically at commit (PUSH* CMT in one quantum), like a
  store buffer draining on XEND;
* **eager conflict detection** — the cache-coherence analogue: a per-key
  table of active readers/writers; an access that creates a read/write or
  write/write overlap with another in-flight hardware transaction aborts
  the *requester* immediately (requester-loses policy);
* **capacity aborts** — a transaction whose footprint exceeds
  ``capacity`` keys aborts with reason ``"capacity"`` (L1-sized buffers);
  retrying cannot help, which is why real deployments pair HTM with a
  software fallback — :class:`HTM` optionally falls back to a global
  lock after ``fallback_after`` aborts, completing the standard
  lock-elision loop.
"""

from __future__ import annotations

import collections
from typing import Dict, Iterator, Set

from repro.core.errors import AbortKind, TMAbort
from repro.core.history import TxRecord
from repro.core.language import Code
from repro.tm.base import Runtime, TMAlgorithm

FALLBACK_TOKEN = "htm-fallback-lock"


class HTM(TMAlgorithm):
    """Best-effort HTM with a global-lock fallback path."""

    name = "htm"
    opaque = True

    def __init__(
        self,
        capacity: int = 64,
        fallback_after: int = 8,
    ):
        self.capacity = capacity
        self.fallback_after = fallback_after
        self._read_sets: Dict[int, Set] = collections.defaultdict(set)
        self._write_sets: Dict[int, Set] = collections.defaultdict(set)
        self._abort_counts: collections.Counter = collections.Counter()

    # -- conflict detection (the coherence-protocol analogue) -----------------

    def _clear(self, tid: int) -> None:
        self._read_sets.pop(tid, None)
        self._write_sets.pop(tid, None)

    def _detect_conflict(self, tid: int, keys: frozenset, is_write: bool) -> bool:
        for other in list(self._read_sets) + list(self._write_sets):
            if other == tid:
                continue
            if is_write and (self._read_sets.get(other, set()) & keys):
                return True
            if self._write_sets.get(other, set()) & keys:
                return True
        return False

    def _track(self, tid: int, keys: frozenset, is_write: bool) -> None:
        target = self._write_sets if is_write else self._read_sets
        target[tid] |= keys
        total = len(self._read_sets.get(tid, set()) | self._write_sets.get(tid, set()))
        if total > self.capacity:
            raise TMAbort("capacity", AbortKind.CAPACITY)

    # -- attempts -----------------------------------------------------------------

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        if self._abort_counts[tid] >= self.fallback_after:
            yield from self._fallback_attempt(rt, tid, record, program)
            return
        try:
            yield from self._hardware_attempt(rt, tid, record, program)
        except TMAbort:
            self._abort_counts[tid] += 1
            raise
        finally:
            self._clear(tid)

    def _hardware_attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        accessed: frozenset = frozenset()
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            is_write = rt.spec.is_mutator(call_node.method)
            if self._detect_conflict(tid, keys, is_write):
                raise TMAbort("htm conflict", AbortKind.CONFLICT)
            self._track(tid, keys, is_write)
            accessed = accessed | keys
            rt.pull_relevant(tid, accessed)  # coherence: whole-footprint view
            self.app_call(rt, tid, 0)
            yield
        # XEND: publish the buffered effects atomically (validated dry
        # first: a hardware abort discards the buffer, it never UNPUSHes).
        self.validate_then_push_all(rt, tid)
        self.commit(rt, tid, record)

    def _fallback_attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        """Lock-elision fallback: serialize under the fallback lock.  Real
        deployments also make hardware transactions subscribe to the lock;
        here hardware attempts simply conflict with the fallback holder's
        committed effects via the machine criteria."""
        while not rt.try_token(FALLBACK_TOKEN, tid):
            yield
        for call_node in self.resolve_steps(program):
            keys = rt.spec.footprint(call_node.method, call_node.args)
            rt.pull_relevant(tid, keys)
            op = self.app_call(rt, tid, 0)
            self.push_op(rt, tid, op)
        self.commit(rt, tid, record)  # the runtime releases the lock
