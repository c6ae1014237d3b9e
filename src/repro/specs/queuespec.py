"""A FIFO queue specification.

Methods:

* ``enq(x) -> None``
* ``deq() -> x | None`` — ``None`` when empty (total, like ``poll()``).
* ``peek() -> x | None``
* ``size() -> n``

Queues are included as a *low-commutativity* data type: almost no pair of
operations commutes (two ``enq``s are ordered by later ``deq``s; two
``deq``s are ordered against each other), which stresses the PUSH criteria
paths of the machine — pessimistic/boosted execution over a queue is
nearly serial, and the benchmarks use this as the adversarial contrast to
the highly commutative :class:`~repro.specs.setspec.SetSpec`.

Mover decision procedure
------------------------
Unlike the other specs, a queue operation's behaviour depends on unbounded
state (the whole contents).  :meth:`QueueSpec.mover_states` enumerates all
queue contents up to length :data:`MOVER_STATE_BOUND` over the alphabet of
mentioned values plus two fresh sentinels.  Two fresh symbols suffice to
expose ordering differences a pair of operations can create (each operation
mentions at most one value; a counterexample to Definition 4.1 either
manifests in the observable return values — which only compare mentioned
values — or in the resulting contents, where positions of at most two
unmentioned elements matter).

``size() -> n`` is the one result that pins a *length*: a pair with it
swaps non-vacuously only on contents of length ``n - 1`` to ``n + 1``
(the other operation changes the length by at most one).  For ``n`` past
the bound, :func:`mover_contents` adds those lengths: every short content
padded with a fresh filler on the side no operation reads.  The filler is
never returned, and a swap involving ``size`` leaves equal contents
whenever both orders are allowed, so only the enumerated end matters.
Property tests validate both against longer enumerations.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

from repro.core.errors import SpecError
from repro.core.ops import Op
from repro.core.spec import StateSpec

MOVER_STATE_BOUND = 3


class _Fresh:
    def __init__(self, tag: str):
        self.tag = tag

    def __repr__(self) -> str:
        return f"<fresh:{self.tag}>"


FRESH_A = _Fresh("a")
FRESH_B = _Fresh("b")


def mover_contents(
    op1: Op, op2: Op, mentioned: Tuple[Any, ...], pad_front: bool
) -> List[Tuple]:
    """Contents sufficient to decide movers for a queue or stack pair:
    every content up to :data:`MOVER_STATE_BOUND` over ``mentioned`` plus
    two fresh symbols, and, for each ``size -> n`` of the pair, those
    contents padded to each length in ``n - 1 .. n + 1`` past the bound.
    ``pad_front`` pads before the contents (a stack reads its end), else
    after them (a queue reads its front)."""
    alphabet = tuple(dict.fromkeys(mentioned)) + (FRESH_A, FRESH_B)
    states: List[Tuple] = [()]
    frontier: List[Tuple] = [()]
    for _ in range(MOVER_STATE_BOUND):
        frontier = [s + (x,) for s in frontier for x in alphabet]
        states.extend(frontier)
    lengths = sorted(
        {
            length
            for op in (op1, op2)
            if op.method == "size" and isinstance(op.ret, int)
            for length in range(op.ret - 1, op.ret + 2)
            if length > MOVER_STATE_BOUND
        }
    )
    short = list(states)
    for length in lengths:
        for s in short:
            pad = (FRESH_B,) * (length - len(s))
            states.append(pad + s if pad_front else s + pad)
    return states


class QueueSpec(StateSpec):
    """A FIFO queue, initially ``initial`` (front first)."""

    def __init__(self, initial: Iterable[Any] = ()):
        self.initial = tuple(initial)

    def initial_state(self) -> Tuple[Any, ...]:
        return self.initial

    def perform(self, state: Tuple, method: str, args: Tuple) -> Tuple[Any, Tuple]:
        if method == "enq":
            (x,) = args
            return None, state + (x,)
        if method == "deq":
            if not state:
                return None, state
            return state[0], state[1:]
        if method == "peek":
            return (state[0] if state else None), state
        if method == "size":
            return len(state), state
        raise SpecError(f"QueueSpec has no method {method!r}")

    @staticmethod
    def _mentioned(op: Op) -> Tuple[Any, ...]:
        values = []
        if op.method == "enq":
            values.append(op.args[0])
        if op.method in ("deq", "peek") and op.ret is not None:
            values.append(op.ret)
        return tuple(values)

    def mover_states(self, op1: Op, op2: Op) -> Iterable[Tuple]:
        return mover_contents(
            op1, op2, self._mentioned(op1) + self._mentioned(op2),
            pad_front=False,
        )

    # -- driver metadata ---------------------------------------------------------

    def footprint(self, method: str, args) -> frozenset:
        return frozenset({"queue"})

    def is_mutator(self, method: str) -> bool:
        return method in ("enq", "deq")

    def probe_ops(self) -> Iterable[Op]:
        from repro.core.ops import make_op

        return (
            make_op("enq", ("p",), None),
            make_op("deq", (), "p"),
            make_op("deq", (), None),
        )
