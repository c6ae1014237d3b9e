"""Serializability checking (Theorem 5.17, made empirical).

The paper proves every PUSH/PULL execution serializable by simulation with
the atomic machine: the relation ``T, G ∼ A, ℓ`` demands
``⌊G⌋_gCmt ≼ ℓ`` for an atomic log ``ℓ``.  This module provides the
run-time side of that statement:

* :func:`find_serialization` — given the committed transactions of a run
  (with their recorded operations) and the machine's committed global log,
  find a *serial* order of the transactions whose concatenation is allowed
  by the specification and covers the committed log under ``≼``.  The
  search tries the commit order first (every algorithm in §6 serialises in
  commit order), then falls back to exhaustive permutation for small
  histories — optionally restricted to orders consistent with real-time
  precedence (strict serializability).
* :func:`assert_serializable` — raise
  :class:`~repro.core.errors.SerializabilityViolation` when no witness
  exists (on machine-driven runs this indicates a bug: Theorem 5.17 says
  it cannot happen).
* :func:`atomic_cover_exists` — the model checker's stronger form: the
  committed payload log must be covered by an actual atomic-machine
  execution of the original thread programs (the literal right-hand side
  of the simulation).
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.atomic import atomic_final_logs
from repro.core.errors import SerializabilityViolation
from repro.core.history import History
from repro.core.language import Code
from repro.core.machine import Machine
from repro.core.ops import Op
from repro.core.precongruence import precongruent
from repro.core.spec import SequentialSpec

MAX_EXHAUSTIVE = 7


class SerializationResult:
    """Outcome of a serialization search."""

    def __init__(
        self,
        order: Optional[Tuple[int, ...]],
        exhaustive: bool,
        candidates_tried: int,
    ):
        self.order = order
        self.exhaustive = exhaustive
        self.candidates_tried = candidates_tried

    @property
    def serializable(self) -> bool:
        return self.order is not None

    @property
    def conclusive(self) -> bool:
        """A negative answer is conclusive only if the search was
        exhaustive."""
        return self.serializable or self.exhaustive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SerializationResult(order={self.order}, "
            f"exhaustive={self.exhaustive}, tried={self.candidates_tried})"
        )


def _order_ok(
    spec: SequentialSpec,
    tx_ops: Sequence[Tuple[Op, ...]],
    order: Sequence[int],
    committed_log: Tuple[Op, ...],
) -> bool:
    candidate: List[Op] = []
    for index in order:
        candidate.extend(tx_ops[index])
    return spec.allowed(tuple(candidate)) and precongruent(
        spec, committed_log, tuple(candidate)
    )


def find_serialization(
    spec: SequentialSpec,
    tx_ops: Sequence[Tuple[Op, ...]],
    committed_log: Tuple[Op, ...],
    real_time: Optional[Iterable[Tuple[int, int]]] = None,
    max_exhaustive: int = MAX_EXHAUSTIVE,
) -> SerializationResult:
    """Search for a serial witness order over ``tx_ops``.

    ``tx_ops[i]`` is the i-th committed transaction's own-operation
    sequence (in local-log order); ``committed_log`` is ``⌊G⌋_gCmt``.
    ``real_time`` optionally supplies precedence pairs ``(i, j)`` meaning
    "i must precede j" (strict serializability).
    """
    n = len(tx_ops)
    constraints = tuple(real_time or ())
    tried = 0

    def respects(order: Sequence[int]) -> bool:
        position = {index: pos for pos, index in enumerate(order)}
        return all(position[a] < position[b] for a, b in constraints)

    identity = tuple(range(n))
    if respects(identity):
        tried += 1
        if _order_ok(spec, tx_ops, identity, committed_log):
            return SerializationResult(identity, exhaustive=False, candidates_tried=tried)

    if n <= max_exhaustive:
        for order in permutations(range(n)):
            if order == identity or not respects(order):
                continue
            tried += 1
            if _order_ok(spec, tx_ops, order, committed_log):
                return SerializationResult(order, exhaustive=True, candidates_tried=tried)
        return SerializationResult(None, exhaustive=True, candidates_tried=tried)
    return SerializationResult(None, exhaustive=False, candidates_tried=tried)


def check_history(
    spec: SequentialSpec,
    history: History,
    machine: Machine,
    strict: bool = True,
    max_exhaustive: int = MAX_EXHAUSTIVE,
) -> SerializationResult:
    """Check a driver run: committed transactions from ``history`` against
    the machine's final committed global log."""
    # Order candidates by commit time: every §6 algorithm serialises in
    # commit order, so the identity try usually succeeds immediately.
    committed = sorted(
        history.committed_records(), key=lambda record: record.end_time
    )
    tx_ops = [record.ops for record in committed]
    committed_log = machine.global_log.committed_ops()
    real_time = None
    if strict:
        index_of = {record.tx_id: i for i, record in enumerate(committed)}
        real_time = [
            (index_of[a], index_of[b])
            for a, b in history.real_time_pairs()
            if a in index_of and b in index_of
        ]
    return find_serialization(
        spec, tx_ops, committed_log, real_time, max_exhaustive
    )


def assert_serializable(
    spec: SequentialSpec,
    history: History,
    machine: Machine,
    strict: bool = True,
) -> SerializationResult:
    """As :func:`check_history`, raising on a conclusive negative."""
    result = check_history(spec, history, machine, strict=strict)
    if not result.serializable and result.exhaustive:
        raise SerializabilityViolation(
            f"no serial witness among {result.candidates_tried} orders for "
            f"{history.commit_count()} committed transactions"
        )
    return result


def atomic_cover_exists(
    spec: SequentialSpec,
    programs: Sequence[Code],
    committed_ops: Tuple[Op, ...],
    fuel: int = 16,
) -> bool:
    """The simulation right-hand side, literally: does some atomic-machine
    execution of ``programs`` produce a log ``ℓ`` with
    ``committed_ops ≼ ℓ``?

    The atomic machine re-executes programs (fresh ids), so coverage is
    checked per candidate with the precongruence on the concrete op lists:
    for deterministic specs this compares replayed final states, which is
    id-insensitive.
    """
    from repro.core.ops import IdGenerator, Op as _Op

    candidates = atomic_final_logs(spec, programs, fuel=fuel)
    ids = IdGenerator(start=20_000_000)
    for payload_log in candidates:
        candidate_ops = tuple(
            _Op(method, args, ret, ids.fresh()) for method, args, ret in payload_log
        )
        if spec.allowed(candidate_ops) and precongruent(
            spec, committed_ops, candidate_ops
        ):
            return True
    return False
