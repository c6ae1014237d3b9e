"""History-level serializability checking (the Theorem 5.17 toolchain).

The serial verdict comes from the one history walk
(:func:`~repro.checking.tms2.decide_history`): a real-time-respecting
order of the committed transactions whose log is allowed and covers the
machine's committed log.  A brute-force enumeration written here pins it
on random interval histories.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checking.tms2 import MAX_EXHAUSTIVE, decide_history
from repro.core import call, tx
from repro.core.errors import SerializabilityViolation
from repro.core.history import History, TxStatus
from repro.core.ops import make_op
from repro.core.precongruence import precongruent
from repro.core.serializability import atomic_cover_exists
from repro.runtime import run_experiment
from repro.specs import CounterSpec, MemorySpec
from repro.tm import TL2TM


def ops(*triples):
    return tuple(make_op(m, a, r) for m, a, r in triples)


def serial(spec, history, committed_log):
    """The walk's serial verdict alone."""
    return decide_history(spec, history, committed_log, opacity=False)


def concurrent(*bodies):
    """A history whose transactions all overlap: every one begins before
    any commits, and they commit in argument order."""
    history = History()
    records = [history.begin(thread_tid=i) for i in range(len(bodies))]
    for record, body in zip(records, bodies):
        history.commit(record, body)
    return history, records


def sequential(*bodies):
    """A history whose transactions run one after another: each ends
    before the next begins."""
    history = History()
    records = []
    for i, body in enumerate(bodies):
        record = history.begin(thread_tid=i)
        history.commit(record, body)
        records.append(record)
    return history, records


class TestFindSerialization:
    spec = MemorySpec()

    def test_commit_order_witness(self):
        t1 = ops(("write", ("x", 1), None))
        t2 = ops(("read", ("x",), 1))
        history, (r1, r2) = concurrent(t1, t2)
        result = serial(self.spec, history, t1 + t2)
        assert result.serializable
        assert result.serial_witness == (r1.tx_id, r2.tx_id)

    def test_requires_permutation(self):
        t1 = ops(("write", ("x", 1), None))
        t2 = ops(("read", ("x",), 0))  # must serialize BEFORE the write
        history, (r1, r2) = concurrent(t1, t2)  # ... though it commits after
        result = serial(self.spec, history, t2 + t1)
        assert result.serializable
        assert result.serial_witness == (r2.tx_id, r1.tx_id)

    def test_no_witness(self):
        t1 = ops(("write", ("x", 1), None))
        t2 = ops(("read", ("x",), 99))
        history, _ = concurrent(t1, t2)
        result = serial(self.spec, history, t1 + t2)
        assert not result.serializable
        assert result.exhaustive  # small n: conclusive

    def test_real_time_constraint_blocks_reorder(self):
        t1 = ops(("write", ("x", 1), None))
        t2 = ops(("read", ("x",), 0))
        # t1 ends before t2 begins: the only order that would serialize
        # the read, (t2, t1), breaks real time.
        history, _ = sequential(t1, t2)
        result = serial(self.spec, history, t2 + t1)
        assert not result.serializable
        assert result.exhaustive

    def test_large_history_inconclusive(self):
        txs = [ops(("write", ("x", i), None)) for i in range(MAX_EXHAUSTIVE + 1)]
        history, _ = concurrent(*txs)
        # an allowed committed log no order of the writes covers:
        committed = ops(("write", ("x", 999), None))
        result = serial(self.spec, history, committed)
        assert not result.serializable
        assert not result.exhaustive  # past the bound: the witness alone

    def test_empty_history(self):
        result = serial(self.spec, History(), ())
        assert result.serializable
        assert result.serial_witness == ()

    def test_cover_picks_another_order(self):
        """The commit order is allowed but does not cover the committed
        log (its final x is 2, the log's is 1): the walk finds the other
        order, which does — while the opacity half keeps the commit
        order as its own witness.  With real time pinning the commit
        order, no order covers the log and the walk rejects."""
        t1 = ops(("write", ("x", 1), None))
        t2 = ops(("write", ("x", 2), None))
        history, (r1, r2) = concurrent(t1, t2)
        verdict = decide_history(self.spec, history, t2 + t1)
        assert verdict.serial_witness == (r2.tx_id, r1.tx_id)
        assert verdict.witness == (r1.tx_id, r2.tx_id)

        history, _ = sequential(t1, t2)
        verdict = decide_history(self.spec, history, t2 + t1)
        assert not verdict.serializable and verdict.exhaustive
        assert verdict.opaque


class TestCheckHistory:
    def test_sorted_by_commit_time(self):
        spec = CounterSpec()
        history = History()
        # Transaction B begins first but commits second.
        rec_b = history.begin(thread_tid=1)
        rec_a = history.begin(thread_tid=0)
        op_a = make_op("inc", (), None)
        op_b = make_op("get", (), 1)
        history.commit(rec_a, [op_a])
        history.commit(rec_b, [op_b])
        result = serial(spec, history, (op_a, op_b))
        assert result.serializable
        # commit order, despite begin order
        assert result.serial_witness == (rec_a.tx_id, rec_b.tx_id)

    def test_assert_raises_on_conclusive_failure(self, monkeypatch):
        """The harness raises on an exhaustive reject: a history whose
        one committed read records a value the machine never returned."""
        commit = History.commit

        def bogus(self, record, own, *args, **kwargs):
            commit(self, record, ops(("read", ("x",), 123)), *args, **kwargs)

        monkeypatch.setattr(History, "commit", bogus)
        with pytest.raises(SerializabilityViolation):
            run_experiment(TL2TM(), MemorySpec(), [tx(call("read", "x"))])

class TestAtomicCover:
    def test_cover_exists(self):
        spec = CounterSpec()
        committed = ops(("inc", (), None), ("inc", (), None))
        programs = [tx(call("inc")), tx(call("inc"))]
        assert atomic_cover_exists(spec, programs, committed)

    def test_cover_missing(self):
        spec = CounterSpec()
        # an allowed committed log the atomic machine cannot reproduce:
        # two inc programs always leave the counter at 2, not 1.
        committed = ops(("inc", (), None),)
        programs = [tx(call("inc")), tx(call("inc"))]
        assert not atomic_cover_exists(spec, programs, committed)

    def test_cover_vacuous_for_disallowed_committed_log(self):
        # ≼'s first clause is an implication: a disallowed committed log
        # is covered by anything (it constrains no observation).
        spec = CounterSpec()
        committed = ops(("inc", (), None), ("get", (), 5))
        programs = [tx(call("inc")), tx(call("get"))]
        assert atomic_cover_exists(spec, programs, committed)

    def test_cover_up_to_reordering(self):
        spec = MemorySpec()
        # committed log: r->0 then w(x,1) — only the order r;w works, and
        # the atomic machine can produce it.
        committed = ops(("read", ("x",), 0), ("write", ("x", 1), None))
        programs = [tx(call("write", "x", 1)), tx(call("read", "x"))]
        assert atomic_cover_exists(spec, programs, committed)


class TestHistoryRecorder:
    def test_lifecycle(self):
        history = History()
        record = history.begin(thread_tid=3)
        assert record.status is TxStatus.ACTIVE
        history.commit(record, ops(("inc", (), None)))
        assert record.committed
        assert history.commit_count() == 1
        assert history.abort_count() == 0

    def test_abort_records_reason_and_view(self):
        history = History()
        record = history.begin(thread_tid=1)
        view = ops(("read", ("x",), 0))
        history.abort(record, "push conflict", observed=view)
        assert record.status is TxStatus.ABORTED
        assert record.abort_reason == "push conflict"
        assert record.observed == view

    def test_real_time_precedence(self):
        """``a`` ended before ``b`` began, so ``a`` precedes ``b``: the
        walk accepts (a, b) and never reorders them."""
        spec = MemorySpec()
        write, read = ops(("write", ("x", 1), None)), ops(("read", ("x",), 1))
        history, (a, b) = sequential(write, read)
        assert serial(spec, history, write + read).serial_witness == (
            a.tx_id, b.tx_id,
        )
        history, _ = sequential(read, write)  # only (write, read) is allowed
        assert not serial(spec, history, write + read).serializable

    def test_overlapping_no_precedence(self):
        """Overlapping records bind neither way: the walk may place the
        later committer first."""
        spec = MemorySpec()
        write, read = ops(("write", ("x", 1), None)), ops(("read", ("x",), 1))
        history, (a, b) = concurrent(read, write)
        assert serial(spec, history, write + read).serial_witness == (
            b.tx_id, a.tx_id,
        )

    def test_retries_chain(self):
        history = History()
        first = history.begin(thread_tid=0)
        history.abort(first, "conflict")
        second = history.begin(thread_tid=0, retries_of=first.tx_id)
        assert second.retries_of == first.tx_id


# -- the walk against brute force ----------------------------------------------


def brute_force_serializable(spec, history, committed_log):
    """Every permutation of the committed records that respects real
    time (``a`` ended before ``b`` began ⇒ ``a`` first), whose log is
    allowed and covers ``committed_log``."""
    committed = history.committed_records()
    for order in permutations(committed):
        if any(
            later.end_time < earlier.begin_time
            for i, earlier in enumerate(order)
            for later in order[i + 1:]
        ):
            continue
        log = tuple(op for record in order for op in record.ops)
        if spec.allowed(log) and precongruent(spec, committed_log, log):
            return True
    return False


_OP = st.tuples(
    st.sampled_from(["write", "read"]), st.sampled_from("xy"), st.integers(0, 1)
)


@st.composite
def interval_histories(draw):
    """Committed (at most ``MAX_EXHAUSTIVE``), aborted and active records
    over two registers, with arbitrary overlaps and possibly wrong read
    values, plus a committed log in commit order or shuffled by
    transaction."""
    statuses = ["committed"] * draw(st.integers(0, MAX_EXHAUSTIVE)) + draw(
        st.lists(st.sampled_from(["aborted", "active"]), max_size=2)
    )
    bodies = [
        ops(*(
            (m, (loc, v), None) if m == "write" else (m, (loc,), v)
            for m, loc, v in draw(st.lists(_OP, min_size=1, max_size=2))
        ))
        for _ in statuses
    ]
    # each record's first token begins it, its second ends it
    tokens = draw(st.permutations([i for i in range(len(statuses)) for _ in "be"]))
    history = History()
    records = {}
    for i in tokens:
        if i not in records:
            records[i] = history.begin(thread_tid=i)
        elif statuses[i] == "committed":
            history.commit(records[i], bodies[i])
        elif statuses[i] == "aborted":
            history.abort(records[i], "conflict", observed=bodies[i])
    committed = list(history.committed_records())
    if draw(st.booleans()):
        committed = draw(st.permutations(committed))
    else:
        committed.sort(key=lambda record: record.end_time)
    return history, tuple(op for record in committed for op in record.ops)


@settings(max_examples=150, deadline=None)
@given(interval_histories())
def test_walk_matches_brute_force(case):
    history, committed_log = case
    spec = MemorySpec()
    verdict = serial(spec, history, committed_log)
    assert verdict.exhaustive
    assert verdict.serializable == brute_force_serializable(
        spec, history, committed_log
    )
    # asking for opacity in the same walk leaves the serial verdict alone
    both = decide_history(spec, history, committed_log)
    assert both.serializable == verdict.serializable
