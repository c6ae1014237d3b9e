"""Exception hierarchy for the PUSH/PULL reproduction.

Every rule of the PUSH/PULL machine (Figure 5 of the paper) carries side
conditions ("criteria").  When a criterion fails at runtime the machine
raises :class:`CriterionViolation`, naming the rule and the criterion number
exactly as the paper does (e.g. ``PUSH criterion (ii)``).  TM algorithm
drivers catch these to trigger aborts; the test-suite asserts on them to
pin down *which* condition a misbehaving schedule trips.
"""

from __future__ import annotations

import enum


class AbortKind(enum.Enum):
    """Structured classification of transaction aborts.

    Drivers attach a kind to every :class:`TMAbort`; the stepper copies it
    onto the history's :class:`~repro.core.history.TxRecord`, so metrics
    and traces can aggregate aborts without parsing reason strings.
    """

    #: a rule criterion failed against concurrent work (the generic
    #: optimistic-conflict abort: APP/PUSH/PULL refused)
    CONFLICT = "conflict"
    #: commit-time validation failed (TL2-style PUSH check, CMT refusal)
    VALIDATION = "validation"
    #: a producer this transaction pulled uncommitted work from aborted
    #: (§6.5 cascading detangle)
    CASCADE = "cascade"
    #: a wait budget was exhausted (lock timeout, dependency/publication
    #: starvation)
    STARVATION = "starvation"
    #: a simulated hardware capacity limit was exceeded (retrying the same
    #: transaction in hardware cannot succeed)
    CAPACITY = "capacity"
    #: driver-requested abort that fits no category above
    EXPLICIT = "explicit"
    #: a fault deliberately injected by the :mod:`repro.faults` nemesis
    #: (forced abort, simulated crash, dropped publication, ...); always a
    #: *clean* abort — the generic rollback runs and the machine state
    #: stays criterion-consistent
    INJECTED = "injected"


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SpecError(ReproError):
    """A sequential specification was used incorrectly (e.g. an operation
    name the specification does not know about)."""


class LogError(ReproError):
    """Malformed log manipulation (e.g. removing an operation that is not
    present, or duplicate operation identifiers)."""


class LanguageError(ReproError):
    """Malformed program in the transaction language (e.g. a method call
    occurring outside any ``tx`` block)."""


class MachineError(ReproError):
    """A PUSH/PULL machine step was attempted from a state in which the
    step's *structural* premises do not hold (distinct from a criterion
    violation: structural errors indicate driver bugs, criteria indicate
    genuinely disallowed behaviours)."""


class CriterionViolation(MachineError):
    """A rule's side-condition failed.

    Attributes
    ----------
    rule:
        Rule name as written in the paper: ``"APP"``, ``"UNAPP"``,
        ``"PUSH"``, ``"UNPUSH"``, ``"PULL"``, ``"UNPULL"``, ``"CMT"``.
    criterion:
        Roman-numeral criterion label from Figure 5, e.g. ``"ii"``.
    """

    def __init__(self, rule: str, criterion: str, detail: str = ""):
        self.rule = rule
        self.criterion = criterion
        self.detail = detail
        message = f"{rule} criterion ({criterion}) violated"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class TMAbort(ReproError):
    """Raised inside a TM algorithm to signal that the current transaction
    must abort (and typically retry).  Carries a human-readable reason for
    messages plus a structured :class:`AbortKind` for statistics."""

    def __init__(self, reason: str = "conflict", kind: AbortKind = AbortKind.CONFLICT):
        self.reason = reason
        self.kind = kind
        super().__init__(f"transaction aborted: {reason}")


class SerializabilityViolation(ReproError):
    """A checker found a committed history with no equivalent atomic
    (serial) execution.  If this is ever raised on a machine-driven run it
    indicates a bug — Theorem 5.17 says it cannot happen."""


class OpacityViolation(ReproError):
    """A checker found an execution outside the opaque fragment whose
    intermediate reads are not justified by any serial prefix (§6.1)."""
