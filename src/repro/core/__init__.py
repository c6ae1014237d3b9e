"""The PUSH/PULL model core (§3–§5 of the paper).

Public surface:

* operation records and logs — :mod:`repro.core.ops`, :mod:`repro.core.logs`
* sequential specifications — :mod:`repro.core.spec`
* precongruence ``≼`` and movers ``◁`` — :mod:`repro.core.precongruence`
* the transaction language — :mod:`repro.core.language`
* the atomic (reference) semantics — :mod:`repro.core.atomic`
* the PUSH/PULL machine — :mod:`repro.core.machine`
* §5's invariants and rewind relations — :mod:`repro.core.invariants`,
  :mod:`repro.core.rewind`
* the serializability checker — :mod:`repro.core.serializability`
* §6.1's opaque fragment — :mod:`repro.core.opacity` (histories are
  judged for opacity by :mod:`repro.checking.tms2`)
"""

from repro.core.errors import (
    CriterionViolation,
    LanguageError,
    LogError,
    MachineError,
    OpacityViolation,
    ReproError,
    SerializabilityViolation,
    SpecError,
    TMAbort,
)
from repro.core.language import Call, Choice, Code, Seq, Skip, SKIP, Star, Tx, call, choice, seq, tx
from repro.core.logs import GlobalLog, LocalLog, EMPTY_GLOBAL, EMPTY_LOCAL
from repro.core.machine import Machine, Thread
from repro.core.ops import IdGenerator, Op, make_op
from repro.core.spec import MemoizedMovers, NondetSpec, SequentialSpec, StateSpec

__all__ = [
    "Call",
    "Choice",
    "Code",
    "CriterionViolation",
    "EMPTY_GLOBAL",
    "EMPTY_LOCAL",
    "GlobalLog",
    "IdGenerator",
    "LanguageError",
    "LocalLog",
    "LogError",
    "Machine",
    "MachineError",
    "MemoizedMovers",
    "NondetSpec",
    "Op",
    "OpacityViolation",
    "ReproError",
    "SequentialSpec",
    "SerializabilityViolation",
    "Seq",
    "Skip",
    "SKIP",
    "SpecError",
    "Star",
    "StateSpec",
    "TMAbort",
    "Thread",
    "Tx",
    "call",
    "choice",
    "make_op",
    "seq",
    "tx",
]
