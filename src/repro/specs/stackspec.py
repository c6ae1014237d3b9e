"""A LIFO stack specification.

Methods:

* ``push(x) -> None``
* ``pop() -> x | None`` — ``None`` when empty.
* ``top() -> x | None``
* ``size() -> n``

Like :mod:`repro.specs.queuespec` this is a low-commutativity type; it
additionally exhibits the *inverse-operation* structure transactional
boosting uses for UNPUSH (``pop`` undoes ``push``), which the boosting
tests exercise.

Mover states follow the same bounded-enumeration argument as the queue
(contents up to length 3 over mentioned values plus two fresh symbols,
padded below the top to the lengths a ``size`` result pins).
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

from repro.core.errors import SpecError
from repro.core.ops import Op
from repro.core.spec import StateSpec
from repro.specs.queuespec import mover_contents


class StackSpec(StateSpec):
    """A LIFO stack, initially ``initial`` (top last)."""

    def __init__(self, initial: Iterable[Any] = ()):
        self.initial = tuple(initial)

    def initial_state(self) -> Tuple[Any, ...]:
        return self.initial

    def perform(self, state: Tuple, method: str, args: Tuple) -> Tuple[Any, Tuple]:
        if method == "push":
            (x,) = args
            return None, state + (x,)
        if method == "pop":
            if not state:
                return None, state
            return state[-1], state[:-1]
        if method == "top":
            return (state[-1] if state else None), state
        if method == "size":
            return len(state), state
        raise SpecError(f"StackSpec has no method {method!r}")

    @staticmethod
    def _mentioned(op: Op) -> Tuple[Any, ...]:
        values = []
        if op.method == "push":
            values.append(op.args[0])
        if op.method in ("pop", "top") and op.ret is not None:
            values.append(op.ret)
        return tuple(values)

    def mover_states(self, op1: Op, op2: Op) -> Iterable[Tuple]:
        return mover_contents(
            op1, op2, self._mentioned(op1) + self._mentioned(op2),
            pad_front=True,
        )

    # -- driver metadata ---------------------------------------------------------

    def footprint(self, method: str, args) -> frozenset:
        return frozenset({"stack"})

    def is_mutator(self, method: str) -> bool:
        return method in ("push", "pop")

    def probe_ops(self) -> Iterable[Op]:
        from repro.core.ops import make_op

        return (
            make_op("push", ("p",), None),
            make_op("pop", (), "p"),
            make_op("pop", (), None),
        )
