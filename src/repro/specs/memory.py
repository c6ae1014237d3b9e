"""Read/write register memory — the substrate of word-based STMs (§6.2).

State is a total map from locations to values (unset locations read the
``default``).  Methods:

* ``read(loc) -> value``
* ``write(loc, value) -> None``

This is the specification the paper's running read/write example uses
(``allowed ℓ·⟨a := x, [x↦5], [x↦5, a↦5], id⟩`` — a read is allowed exactly
when its recorded value matches the state).

Mover decision procedure
------------------------
The behaviour of a ``read``/``write`` pair depends only on the values of
the locations the two operations mention, so Definition 4.1's quantifier
over all logs ``ℓ`` collapses to a quantifier over assignments to those
locations.  Candidate values per location: the default, plus every value
mentioned by either operation (args and rets) — any other value behaves
like a fresh one and is represented by the extra ``_Distinct`` sentinel.
This makes :meth:`MemorySpec.mover_states` an exact finite basis.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple

from repro.core.errors import SpecError
from repro.core.ops import Op
from repro.core.spec import StateSpec


class _Distinct:
    """A value guaranteed different from every user value (fresh symbol)."""

    _instance: Optional["_Distinct"] = None

    def __new__(cls) -> "_Distinct":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<distinct>"


DISTINCT = _Distinct()


def _freeze(mapping: dict) -> Tuple[Tuple[Any, Any], ...]:
    return tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0])))


class MemorySpec(StateSpec):
    """Registers ``loc ↦ value`` with ``read``/``write``."""

    def __init__(self, default: Any = 0):
        self.default = default

    # -- StateSpec interface -------------------------------------------------

    def initial_state(self) -> Tuple[Tuple[Any, Any], ...]:
        return ()

    def perform(self, state, method: str, args: Tuple) -> Tuple[Any, Any]:
        store = dict(state)
        if method == "read":
            (loc,) = args
            return store.get(loc, self.default), state
        if method == "write":
            loc, value = args
            if value == self.default:
                # Canonical states: a location holding the default is
                # indistinguishable from an absent one, so never store it
                # (writing the default is observationally a no-op).
                store.pop(loc, None)
            else:
                store[loc] = value
            return None, _freeze(store)
        if method == "cas":
            loc, expected, new = args
            if store.get(loc, self.default) != expected:
                return False, state
            if new == self.default:
                store.pop(loc, None)
            else:
                store[loc] = new
            return True, _freeze(store)
        raise SpecError(f"MemorySpec has no method {method!r}")

    # -- exact movers ----------------------------------------------------------

    @staticmethod
    def _locations(op: Op) -> Tuple[Any, ...]:
        return (op.args[0],)

    def _values_of_interest(self, op1: Op, op2: Op) -> Tuple[Any, ...]:
        values = {self.default, DISTINCT}
        for op in (op1, op2):
            if op.method == "write":
                values.add(op.args[1])
            elif op.method == "read":
                values.add(op.ret)
            elif op.method == "cas":
                values.add(op.args[1])
                values.add(op.args[2])
        return tuple(values)

    def mover_states(self, op1: Op, op2: Op) -> Iterable:
        locs = sorted(
            set(self._locations(op1)) | set(self._locations(op2)),
            key=repr,
        )
        values = self._values_of_interest(op1, op2)
        states = [()]
        for loc in locs:
            states = [
                state + ((loc, value),) for state in states for value in values
            ]
        return [tuple(sorted(s, key=lambda kv: repr(kv[0]))) for s in states]

    # -- probes for bounded checkers -------------------------------------------

    # -- driver metadata ---------------------------------------------------------

    def footprint(self, method: str, args) -> frozenset:
        return frozenset({("loc", args[0])})

    def is_mutator(self, method: str) -> bool:
        return method in ("write", "cas")

    def probe_ops(self) -> Iterable[Op]:
        from repro.core.ops import make_op

        return (
            make_op("read", ("probe",), self.default),
            make_op("write", ("probe", 1), None),
            make_op("read", ("probe",), 1),
        )
