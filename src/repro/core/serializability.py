"""The atomic-cover check (Theorem 5.17's simulation, literally).

The paper proves every PUSH/PULL execution serializable by simulation with
the atomic machine: the relation ``T, G ∼ A, ℓ`` demands
``⌊G⌋_gCmt ≼ ℓ`` for an atomic log ``ℓ``.  The history-level form — some
real-time-respecting serial order of the recorded committed transactions
covers ``⌊G⌋_gCmt`` — is one half of the history walk
(:func:`repro.checking.tms2.decide_history`).  This module keeps the
stronger form the fuzz oracle's divergence check needs:
:func:`atomic_cover_exists` — the committed payload log must be covered by
an actual atomic-machine execution of the original thread programs (the
literal right-hand side of the simulation).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.atomic import atomic_final_logs
from repro.core.language import Code
from repro.core.ops import Op
from repro.core.precongruence import precongruent
from repro.core.spec import SequentialSpec


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
