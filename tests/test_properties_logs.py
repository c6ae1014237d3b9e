"""Property-based tests for the log data structures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.logs import (
    COMMITTED,
    EMPTY_GLOBAL,
    EMPTY_LOCAL,
    GlobalLog,
    LocalLog,
    NotPushed,
    Pulled,
    Pushed,
    UNCOMMITTED,
    ops_minus,
)
from repro.core.ops import Op

LOG_SETTINGS = settings(max_examples=80, deadline=None)


@st.composite
def op_lists(draw, max_size=8):
    n = draw(st.integers(min_value=0, max_value=max_size))
    return [
        Op("m", (i,), None, op_id=i) for i in range(n)
    ]


@st.composite
def local_logs(draw, max_size=8):
    ops = draw(op_lists(max_size))
    flags = draw(
        st.lists(
            st.sampled_from(["npshd", "pshd", "pld"]),
            min_size=len(ops), max_size=len(ops),
        )
    )
    log = EMPTY_LOCAL
    flag_of = {"npshd": NotPushed(), "pshd": Pushed(), "pld": Pulled()}
    for op, flag in zip(ops, flags):
        log = log.append(op, flag_of[flag])
    return log


@st.composite
def global_logs(draw, max_size=8):
    ops = draw(op_lists(max_size))
    flags = draw(
        st.lists(st.booleans(), min_size=len(ops), max_size=len(ops))
    )
    log = EMPTY_GLOBAL
    for op, committed in zip(ops, flags):
        log = log.append(op, COMMITTED if committed else UNCOMMITTED)
    return log


class TestLocalLogProperties:
    @LOG_SETTINGS
    @given(log=local_logs())
    def test_projections_partition(self, log):
        projected = (
            set(log.pushed_ops()) | set(log.not_pushed_ops()) | set(log.pulled_ops())
        )
        assert projected == set(log.all_ops())
        assert len(log.pushed_ops()) + len(log.not_pushed_ops()) + len(
            log.pulled_ops()
        ) == len(log)

    @LOG_SETTINGS
    @given(log=local_logs())
    def test_own_ops_preserve_order(self, log):
        own = log.own_ops()
        positions = [log.index_of(op) for op in own]
        assert positions == sorted(positions)

    @LOG_SETTINGS
    @given(log=local_logs(), data=st.data())
    def test_remove_then_not_contains(self, log, data):
        if len(log) == 0:
            return
        victim = data.draw(st.sampled_from([e.op for e in log]))
        shrunk = log.remove(victim)
        assert victim not in shrunk
        assert len(shrunk) == len(log) - 1
        # order of the rest preserved:
        rest = [op for op in log.all_ops() if op.op_id != victim.op_id]
        assert list(shrunk.all_ops()) == rest

    @LOG_SETTINGS
    @given(log=local_logs(), data=st.data())
    def test_set_flag_changes_only_target(self, log, data):
        if len(log) == 0:
            return
        victim = data.draw(st.sampled_from([e.op for e in log]))
        changed = log.set_flag(victim, Pulled())
        for before, after in zip(log, changed):
            if before.op.op_id == victim.op_id:
                assert after.is_pulled
            else:
                assert type(before.flag) is type(after.flag)

    @LOG_SETTINGS
    @given(log=local_logs())
    def test_hash_equals_implies_equal(self, log):
        rebuilt = LocalLog(log.entries)
        assert rebuilt == log
        assert hash(rebuilt) == hash(log)


class TestGlobalLogProperties:
    @LOG_SETTINGS
    @given(log=global_logs())
    def test_committed_uncommitted_partition(self, log):
        assert set(log.committed_ops()) | set(log.uncommitted_ops()) == set(
            log.all_ops()
        )
        assert not (set(log.committed_ops()) & set(log.uncommitted_ops()))

    @LOG_SETTINGS
    @given(log=global_logs(), data=st.data())
    def test_minus_is_filter(self, log, data):
        ops = [e.op for e in log]
        drop = data.draw(st.lists(st.sampled_from(ops), unique=True)) if ops else []
        shrunk = log.minus(drop)
        drop_ids = {o.op_id for o in drop}
        assert [e.op for e in shrunk] == [
            e.op for e in log if e.op.op_id not in drop_ids
        ]

    @LOG_SETTINGS
    @given(log=global_logs(), data=st.data())
    def test_intersect_orders_by_self(self, log, data):
        ops = [e.op for e in log]
        subset = data.draw(st.lists(st.sampled_from(ops), unique=True)) if ops else []
        result = log.intersect_ops(reversed(subset))
        positions = [log.index_of(op) for op in result]
        assert positions == sorted(positions)

    @LOG_SETTINGS
    @given(a=op_lists(), data=st.data())
    def test_ops_minus_complement(self, a, data):
        drop = data.draw(st.lists(st.sampled_from(a), unique=True)) if a else []
        kept = ops_minus(a, drop)
        assert set(kept) | {o for o in a if o in drop} == set(a)
        assert all(op not in drop for op in kept)
