"""Log precongruence ``≼`` (Def. 3.1) and movers ``◁``/``▷`` (Def. 4.1).

The paper defines ``ℓ1 ≼ ℓ2`` coinductively: ``allowed ℓ1 ⇒ allowed ℓ2``
and for every operation ``op``, ``ℓ1·op ≼ ℓ2·op`` — i.e. no sequence of
observations of ``ℓ1`` is impossible for ``ℓ2`` (greatest fixpoint, so the
property is "up to all infinite suffixes").

Deciding a greatest fixpoint over *all* operation extensions is not
computable for arbitrary specifications, so this module offers a layered
strategy, from exact to bounded:

1. :class:`~repro.core.spec.StateSpec` admits an **exact** check: a
   deterministic denotation collapses the coinduction to "ℓ1 disallowed, or
   both allowed with observationally equal final states" (see
   ``StateSpec.precongruent``).
2. For relational specs, :func:`precongruent_bounded` unrolls the
   coinductive definition to depth ``k`` over a finite probe universe
   (``spec.probe_ops()``).  This is sound for refutation (a failure at any
   depth is a genuine ``⋠``) and, for finite-state specs whose probe set
   reaches every transition, complete at depth ≥ the state-space diameter.

The mover relations follow the same pattern: exact oracles on
:class:`StateSpec` (Definition 4.1 quantifies over every log ``ℓ``, which a
spec resolves by quantifying over its reachable states), and a bounded
fallback :func:`left_mover_bounded` quantifying over probe logs.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import List, Optional, Sequence, Tuple

from repro.core.ops import Op
from repro.core.spec import (
    SequentialSpec,
    StateSpec,
    shared_denotations,
    shared_movers,
)
from repro.obs.tracer import CAT_MOVER, NULL_TRACER, Tracer


# ---------------------------------------------------------------------------
# Precongruence
# ---------------------------------------------------------------------------


def precongruent(
    spec: SequentialSpec,
    l1: Sequence[Op],
    l2: Sequence[Op],
    depth: int = 3,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """``ℓ1 ≼ ℓ2`` — exact for :class:`StateSpec`, bounded otherwise.

    With an enabled tracer each query becomes a ``precongruent`` span in
    the ``mover`` category (the oracle family the paper's criteria and the
    simulation check both lean on), tagged with the log lengths and the
    strategy used — the data needed to see whether ``≼`` checks or mover
    checks dominate a model-checking run.

    Both strategies evaluate against the spec's shared denotation cache
    (``[[ℓ]]`` keyed by payload classes), so a ``≼`` query over logs whose
    prefixes were already denoted costs dictionary hits, not replays.
    """
    if not tracer.enabled:
        if isinstance(spec, StateSpec):
            return shared_denotations(spec).precongruent(l1, l2)
        return precongruent_bounded(spec, l1, l2, depth)
    start = tracer.now()
    exact = isinstance(spec, StateSpec)
    if exact:
        result = shared_denotations(spec, tracer).precongruent(l1, l2)
    else:
        result = precongruent_bounded(spec, l1, l2, depth)
    tracer.span(
        "precongruent",
        CAT_MOVER,
        start,
        args={
            "len1": len(l1),
            "len2": len(l2),
            "exact": exact,
            "result": result,
        },
    )
    return result


def precongruent_bounded(
    spec: SequentialSpec,
    l1: Sequence[Op],
    l2: Sequence[Op],
    depth: int,
    probes: Optional[Sequence[Op]] = None,
) -> bool:
    """Unroll Definition 3.1 to ``depth`` over the probe universe.

    At each level we check the implication ``allowed ℓ1 ⇒ allowed ℓ2`` and
    recurse on every single-probe extension.  ``depth`` bounds the suffix
    length considered; probes default to ``spec.probe_ops()``.

    ``allowed`` queries go through the spec's shared denotation cache, and
    ``allowed ℓ1`` is evaluated once per recursion level (it used to be
    replayed twice — once for the implication, once for the prefix-closure
    cut).
    """
    if probes is None:
        probes = tuple(spec.probe_ops())
    l1 = tuple(l1)
    l2 = tuple(l2)
    denots = shared_denotations(spec)
    l1_allowed = denots.allowed(l1)
    if l1_allowed and not denots.allowed(l2):
        return False
    if depth == 0:
        return True
    # Prefix closure: once ℓ1 is disallowed every extension is disallowed,
    # so the implication holds vacuously at all deeper levels.
    if not l1_allowed:
        return True
    return all(
        precongruent_bounded(spec, l1 + (op,), l2 + (op,), depth - 1, probes)
        for op in probes
    )


def log_equivalent(
    spec: SequentialSpec, l1: Sequence[Op], l2: Sequence[Op], depth: int = 3
) -> bool:
    """Mutual precongruence ``ℓ1 ≼ ℓ2 ∧ ℓ2 ≼ ℓ1``."""
    return precongruent(spec, l1, l2, depth) and precongruent(spec, l2, l1, depth)


# ---------------------------------------------------------------------------
# Movers on single operations
# ---------------------------------------------------------------------------


def left_mover(spec: SequentialSpec, op1: Op, op2: Op) -> bool:
    """``op1 ◁ op2`` via the spec's shared mover memo (exact oracle where
    available) — the same memo the machine criteria consult."""
    return shared_movers(spec).left_mover(op1, op2)


def right_mover(spec: SequentialSpec, op1: Op, op2: Op) -> bool:
    """``op1 ▷ op2  ≡  op2 ◁ op1``."""
    return shared_movers(spec).left_mover(op2, op1)


def both_mover(spec: SequentialSpec, op1: Op, op2: Op) -> bool:
    """Full commutativity (both movers)."""
    movers = shared_movers(spec)
    return movers.left_mover(op1, op2) and movers.left_mover(op2, op1)


def left_mover_bounded(
    spec: SequentialSpec,
    op1: Op,
    op2: Op,
    context_depth: int = 2,
    suffix_depth: int = 2,
    probes: Optional[Sequence[Op]] = None,
) -> bool:
    """Bounded ground-truth check of Definition 4.1.

    Quantifies the context ``ℓ`` over all probe sequences of length up to
    ``context_depth`` and checks ``ℓ·op1·op2 ≼ ℓ·op2·op1`` with suffixes
    bounded by ``suffix_depth``.  Used by property tests to validate the
    exact per-spec oracles.
    """
    if probes is None:
        probes = tuple(spec.probe_ops())
    for n in range(context_depth + 1):
        for ctx in product(probes, repeat=n):
            l1 = tuple(ctx) + (op1, op2)
            l2 = tuple(ctx) + (op2, op1)
            if isinstance(spec, StateSpec):
                if not spec.precongruent(l1, l2):
                    return False
            elif not precongruent_bounded(spec, l1, l2, suffix_depth, probes):
                return False
    return True


# ---------------------------------------------------------------------------
# Trace normal forms (the POR quotient's representative function)
# ---------------------------------------------------------------------------


def trace_normal_form(items, commutes, sort_key=None) -> Tuple:
    """The lexicographically-least representative of ``items``'s
    Mazurkiewicz trace class under the independence relation ``commutes``.

    Two sequences are trace-equivalent when one rewrites into the other by
    swapping *adjacent* independent elements — exactly the both-mover
    swaps of Definition 4.1 when ``commutes`` is instantiated with the
    spec's mover oracle, in which case trace-equivalent logs are mutually
    ``≼`` (both-movers commute under every context, and ``≼`` is a
    precongruence, so the equivalence lifts from the swapped pair to the
    whole log).  The model checker's reduction layer keys visited states
    on this normal form, so all both-mover interleavings of the global log
    collapse to one explored representative.

    Greedy algorithm: repeatedly extract the ``sort_key``-least element
    that commutes with everything before it (a minimal element of the
    trace's dependence order).  The dependence order is an invariant of
    the class, so the result is canonical: equal on two sequences iff they
    are trace-equivalent.  O(n²) ``commutes`` queries; ``commutes`` must
    be symmetric, and ``sort_key`` a total order on the elements (``None``
    compares the elements themselves).
    """
    pending = list(items)
    if len(pending) < 2:
        return tuple(pending)
    out = []
    while pending:
        best_index = 0
        best_key = None
        for index, item in enumerate(pending):
            if any(
                not commutes(pending[j], item) for j in range(index)
            ):
                continue  # blocked: cannot slide to the front
            key = item if sort_key is None else sort_key(item)
            if best_key is None or key < best_key:
                best_index, best_key = index, key
        out.append(pending.pop(best_index))
    return tuple(out)


def serial_permutation_exists(
    spec: SequentialSpec, chunks: Sequence[Sequence[Op]], target: Sequence[Op]
) -> bool:
    """Whether some permutation of ``chunks`` (each chunk kept in order)
    yields a log observationally covering ``target`` (``target ≼ perm``).

    A brute-force serializability reference used by tests on tiny histories.
    """
    target = tuple(target)
    # ``allowed target`` is loop-invariant: when it fails no permutation can
    # succeed, so refuse up front instead of enumerating all |chunks|! orders.
    if not spec.allowed(target):
        return False
    for order in permutations(range(len(chunks))):
        candidate: List[Op] = []
        for index in order:
            candidate.extend(chunks[index])
        if precongruent(spec, target, tuple(candidate)) and spec.allowed(
            tuple(candidate)
        ):
            return True
    return False
