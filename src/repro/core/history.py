"""Transaction histories — what drivers record, what checkers consume.

The machine itself clears a thread's local log at CMT (Figure 5), so the
association "this committed transaction consisted of these operations" is
runtime knowledge.  TM drivers (:mod:`repro.tm`) record a
:class:`TxRecord` per transaction attempt into a :class:`History`; the
serializability and opacity checkers then work over the history together
with the machine's final global log.

Timestamps are logical (a shared monotone counter), giving the real-time
precedence order needed for *strict* serializability checking: if
transaction A committed before B began, A must precede B in any admissible
serialization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import AbortKind
from repro.core.ops import Op


class TxStatus(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class TxRecord:
    """One transaction attempt.

    ``ops`` are the transaction's *own* operations in local-log order;
    ``observed`` additionally interleaves pulled operations (the local view
    used by the opacity checker); ``pulled_uncommitted`` records
    dependencies on other transactions' uncommitted work (§6.5).

    ``abort_reason`` is the free-text message for humans; ``abort_kind``
    is the structured classification metrics aggregate on (never parse the
    reason string).
    """

    tx_id: int
    thread_tid: int
    begin_time: int
    status: TxStatus = TxStatus.ACTIVE
    end_time: Optional[int] = None
    ops: Tuple[Op, ...] = ()
    observed: Tuple[Op, ...] = ()
    pulled_uncommitted: Tuple[Op, ...] = ()
    abort_reason: Optional[str] = None
    abort_kind: Optional[AbortKind] = None
    retries_of: Optional[int] = None

    @property
    def committed(self) -> bool:
        return self.status is TxStatus.COMMITTED


class History:
    """An append-only record of transaction attempts."""

    def __init__(self) -> None:
        self._records: List[TxRecord] = []
        self._clock = itertools.count()
        self._by_id: Dict[int, TxRecord] = {}

    def now(self) -> int:
        return next(self._clock)

    def begin(self, thread_tid: int, retries_of: Optional[int] = None) -> TxRecord:
        record = TxRecord(
            tx_id=len(self._records),
            thread_tid=thread_tid,
            begin_time=self.now(),
            retries_of=retries_of,
        )
        self._records.append(record)
        self._by_id[record.tx_id] = record
        return record

    def commit(
        self,
        record: TxRecord,
        ops: Sequence[Op],
        observed: Sequence[Op] = (),
        pulled_uncommitted: Sequence[Op] = (),
    ) -> None:
        record.status = TxStatus.COMMITTED
        record.end_time = self.now()
        record.ops = tuple(ops)
        record.observed = tuple(observed) or tuple(ops)
        record.pulled_uncommitted = tuple(pulled_uncommitted)

    def abort(
        self,
        record: TxRecord,
        reason: str,
        observed: Sequence[Op] = (),
        pulled_uncommitted: Sequence[Op] = (),
        kind: AbortKind = AbortKind.EXPLICIT,
    ) -> None:
        record.status = TxStatus.ABORTED
        record.end_time = self.now()
        record.observed = tuple(observed)
        record.pulled_uncommitted = tuple(pulled_uncommitted)
        record.abort_reason = reason
        record.abort_kind = kind

    # -- views ---------------------------------------------------------------

    @property
    def records(self) -> Tuple[TxRecord, ...]:
        return tuple(self._records)

    def committed_records(self) -> Tuple[TxRecord, ...]:
        return tuple(r for r in self._records if r.committed)

    def aborted_records(self) -> Tuple[TxRecord, ...]:
        return tuple(r for r in self._records if r.status is TxStatus.ABORTED)

    def commit_count(self) -> int:
        return len(self.committed_records())

    def abort_count(self) -> int:
        return len(self.aborted_records())

    def precedes(self, a: TxRecord, b: TxRecord) -> bool:
        """Real-time precedence: ``a`` ended before ``b`` began."""
        return a.end_time is not None and a.end_time < b.begin_time

    def real_time_pairs(self) -> Iterable[Tuple[int, int]]:
        """All (tx_id, tx_id) real-time precedence pairs among committed
        transactions."""
        committed = self.committed_records()
        for a in committed:
            for b in committed:
                if a.tx_id != b.tx_id and self.precedes(a, b):
                    yield a.tx_id, b.tx_id
