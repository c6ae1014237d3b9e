"""The atomic semantics (Figure 3) — the specification machine.

Transactions execute *instantly*, with no interleaving: the big-step
relation ``(c, σ), ℓ ⇓ σ', ℓ'`` (rules BSSTEP/BSFIN) scans the
nondeterminism of a transaction body via ``step``/``fin`` and extends the
shared log with operations the sequential specification allows.  The
machine-level relation ``A, ℓ →a* A', ℓ'`` interleaves whole transactions.

Because the model is nondeterministic, the executable form enumerates: the
generators below yield every behaviour up to a fuel bound (needed only for
``(c)*`` loops — loop-free programs enumerate completely).  The
serializability checkers (:mod:`repro.core.serializability`,
:mod:`repro.checking.model_checker`) consume these enumerations as the
right-hand side of the simulation of Theorem 5.17.

Operation identifiers are drawn from a local generator per enumeration, so
results are compared by *payload sequence* (method/args/ret triples), which
is exactly what the precongruence ``≼`` observes.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.language import Code, Skip, Tx, fin, step
from repro.core.errors import SpecError
from repro.core.ops import IdGenerator, Op
from repro.core.spec import SequentialSpec

Payload = Tuple[str, Tuple, object]


def payload_of(op: Op) -> Payload:
    return (op.method, op.args, op.ret)


def payloads(ops: Sequence[Op]) -> Tuple[Payload, ...]:
    return tuple(payload_of(op) for op in ops)


def bigstep(
    spec: SequentialSpec,
    code: Code,
    log: Tuple[Op, ...],
    ids: IdGenerator,
    fuel: int = 16,
) -> Iterator[Tuple[Op, ...]]:
    """Enumerate ``⇓`` outcomes: every operation suffix a complete run of
    ``code`` may append to ``log``.

    BSFIN contributes the empty suffix whenever ``fin(code)``; BSSTEP
    contributes, for each ``(m, c') ∈ step(code)``, the suffixes of ``c'``
    after an allowed record for ``m``.  Return values are synthesised with
    ``spec.result`` so each appended record is allowed by construction;
    specs whose ``result`` raises on a disallowed log prune that branch.

    ``fuel`` bounds the number of BSSTEP applications on a path (only
    ``(c)*`` can exceed any bound).  Duplicate payload-suffixes arising from
    different nondeterministic paths are deduplicated.
    """
    seen: Set[Tuple[Payload, ...]] = set()
    for suffix in _bigstep_raw(spec, code, log, ids, fuel):
        key = payloads(suffix)
        if key not in seen:
            seen.add(key)
            yield suffix


def _bigstep_raw(
    spec: SequentialSpec,
    code: Code,
    log: Tuple[Op, ...],
    ids: IdGenerator,
    fuel: int,
) -> Iterator[Tuple[Op, ...]]:
    if fin(code):
        yield ()
    if fuel <= 0:
        return
    for call_node, cont in step(code):
        try:
            ret = spec.result(log, call_node.method, call_node.args)
        except SpecError:
            continue
        op = Op(call_node.method, call_node.args, ret, ids.fresh())
        extended = log + (op,)
        if not spec.allowed(extended):
            continue
        for rest in _bigstep_raw(spec, cont, extended, ids, fuel - 1):
            yield (op,) + rest


def run_transaction_atomically(
    spec: SequentialSpec,
    transaction: Code,
    log: Tuple[Op, ...],
    ids: Optional[IdGenerator] = None,
    fuel: int = 16,
) -> Iterator[Tuple[Op, ...]]:
    """AM_RUNTX: all complete-log outcomes of running ``tx c`` at ``log``."""
    body = transaction.body if isinstance(transaction, Tx) else transaction
    ids = ids or IdGenerator()
    for suffix in bigstep(spec, body, log, ids, fuel):
        yield log + suffix


def atomic_final_logs(
    spec: SequentialSpec,
    programs: Sequence[Code],
    fuel: int = 16,
    max_states: int = 200_000,
) -> FrozenSet[Tuple[Payload, ...]]:
    """Every final shared-log payload sequence of the atomic machine
    ``A, ℓ →a* [], ℓ'`` started from empty log, where ``A = programs``.

    Thread programs may be single transactions or sequences of them; the
    machine nondeterministically interleaves whole transactions (AMS_ONE /
    AMS_END).  Exploration is exhaustive up to ``fuel`` per transaction,
    memoised on (thread codes, payload log).
    """
    ids = IdGenerator()
    initial = (tuple(programs), ())
    seen: Set[Tuple[Tuple[Code, ...], Tuple[Payload, ...]]] = set()
    finals: Set[Tuple[Payload, ...]] = set()
    stack: List[Tuple[Tuple[Code, ...], Tuple[Op, ...]]] = [initial]
    while stack:
        codes, log = stack.pop()
        key = (codes, payloads(log))
        if key in seen:
            continue
        seen.add(key)
        if len(seen) > max_states:
            raise MemoryError("atomic exploration exceeded max_states")
        live = tuple(c for c in codes if not isinstance(c, Skip))
        if not live:
            finals.add(payloads(log))
            continue
        for i, code in enumerate(codes):
            if isinstance(code, Skip):
                continue
            for next_code, next_log in _atomic_thread_steps(
                spec, code, log, ids, fuel
            ):
                new_codes = codes[:i] + (next_code,) + codes[i + 1 :]
                stack.append((new_codes, next_log))
    return frozenset(finals)


def _atomic_thread_steps(
    spec: SequentialSpec,
    code: Code,
    log: Tuple[Op, ...],
    ids: IdGenerator,
    fuel: int,
) -> Iterator[Tuple[Code, Tuple[Op, ...]]]:
    """One ``→a`` step of a single thread (Figure 3, inductive on ``c``)."""
    from repro.core.language import Choice, Seq, Star, SKIP, seq_cont

    if isinstance(code, Tx):
        # AM_RUNTX: the whole transaction runs via ⇓.
        for new_log in run_transaction_atomically(spec, code, log, ids, fuel):
            yield SKIP, new_log
        return
    if isinstance(code, Choice):
        yield code.left, log
        yield code.right, log
        return
    if isinstance(code, Star):
        # AM_LOOP: unfold to (body ; (body)*) + skip.
        yield Choice(Seq(code.body, code), SKIP), log
        return
    if isinstance(code, Seq):
        if isinstance(code.first, Skip):
            yield code.second, log
            return
        for next_first, next_log in _atomic_thread_steps(
            spec, code.first, log, ids, fuel
        ):
            yield seq_cont(next_first, code.second), next_log
        return
    if isinstance(code, Skip):
        return
    raise SpecError(f"atomic machine cannot step code {code!r}")
