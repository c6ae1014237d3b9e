"""Local/global logs: flags, projections, lifted set operations, cmt."""

import pytest

from repro.core.errors import LogError
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
from repro.core.ops import make_op


@pytest.fixture
def ops():
    return [make_op("m", (i,), None, op_id=i) for i in range(6)]


class TestLocalLog:
    def test_empty(self):
        assert len(EMPTY_LOCAL) == 0
        assert list(EMPTY_LOCAL) == []

    def test_append_and_contains(self, ops):
        log = EMPTY_LOCAL.append(ops[0], NotPushed())
        assert ops[0] in log
        assert ops[1] not in log
        assert len(log) == 1

    def test_append_duplicate_id_rejected(self, ops):
        log = EMPTY_LOCAL.append(ops[0], NotPushed())
        with pytest.raises(LogError):
            log.append(ops[0], Pulled())

    def test_immutability(self, ops):
        log = EMPTY_LOCAL
        log2 = log.append(ops[0], NotPushed())
        assert len(log) == 0 and len(log2) == 1

    def test_projections(self, ops):
        log = (
            EMPTY_LOCAL.append(ops[0], NotPushed())
            .append(ops[1], Pushed())
            .append(ops[2], Pulled())
            .append(ops[3], NotPushed())
        )
        assert log.not_pushed_ops() == (ops[0], ops[3])
        assert log.pushed_ops() == (ops[1],)
        assert log.pulled_ops() == (ops[2],)
        assert log.own_ops() == (ops[0], ops[1], ops[3])
        assert log.all_ops() == tuple(ops[:4])

    def test_set_flag(self, ops):
        log = EMPTY_LOCAL.append(ops[0], NotPushed(saved_code="c"))
        log2 = log.set_flag(ops[0], Pushed(saved_code="c"))
        assert log2[0].is_pushed
        assert log[0].is_not_pushed  # original untouched

    def test_remove_preserves_order(self, ops):
        log = (
            EMPTY_LOCAL.append(ops[0], Pulled())
            .append(ops[1], Pulled())
            .append(ops[2], Pulled())
        )
        log2 = log.remove(ops[1])
        assert log2.all_ops() == (ops[0], ops[2])

    def test_remove_missing_raises(self, ops):
        with pytest.raises(LogError):
            EMPTY_LOCAL.remove(ops[0])

    def test_drop_last(self, ops):
        log = EMPTY_LOCAL.append(ops[0], NotPushed()).append(ops[1], NotPushed())
        assert log.drop_last().all_ops() == (ops[0],)

    def test_drop_last_empty_raises(self):
        with pytest.raises(LogError):
            EMPTY_LOCAL.drop_last()

    def test_prefix(self, ops):
        log = EMPTY_LOCAL.append(ops[0], NotPushed()).append(ops[1], NotPushed())
        assert log.prefix(1).all_ops() == (ops[0],)

    def test_hash_and_eq(self, ops):
        a = EMPTY_LOCAL.append(ops[0], NotPushed())
        b = EMPTY_LOCAL.append(ops[0], NotPushed())
        assert a == b
        assert hash(a) == hash(b)

    def test_entry_for(self, ops):
        log = EMPTY_LOCAL.append(ops[0], Pulled())
        assert log.entry_for(ops[0]).is_pulled
        assert log.entry_for(ops[1]) is None

    def test_contained_in(self, ops):
        local = EMPTY_LOCAL.append(ops[0], Pushed()).append(ops[1], Pulled())
        glob = EMPTY_GLOBAL.append(ops[0])
        assert local.contained_in(glob)  # pulled entries don't count


class TestGlobalLog:
    def test_append_flags(self, ops):
        log = EMPTY_GLOBAL.append(ops[0]).append(ops[1], COMMITTED)
        assert log.uncommitted_ops() == (ops[0],)
        assert log.committed_ops() == (ops[1],)

    def test_append_duplicate_rejected(self, ops):
        log = EMPTY_GLOBAL.append(ops[0])
        with pytest.raises(LogError):
            log.append(ops[0])

    def test_minus_keeps_order(self, ops):
        log = EMPTY_GLOBAL.append(ops[0]).append(ops[1]).append(ops[2])
        shrunk = log.minus([ops[1]])
        assert shrunk.all_ops() == (ops[0], ops[2])

    def test_intersect_ops_orders_by_self(self, ops):
        log = EMPTY_GLOBAL.append(ops[2]).append(ops[0]).append(ops[1])
        assert log.intersect_ops([ops[0], ops[2]]) == (ops[2], ops[0])

    def test_commit_flips_pushed(self, ops):
        local = EMPTY_LOCAL.append(ops[0], Pushed()).append(ops[1], NotPushed())
        glob = EMPTY_GLOBAL.append(ops[0]).append(ops[2])
        committed = glob.commit(local)
        assert committed.entry_for(ops[0]).is_committed
        assert not committed.entry_for(ops[2]).is_committed

    def test_commit_missing_pushed_raises(self, ops):
        local = EMPTY_LOCAL.append(ops[0], Pushed())
        with pytest.raises(LogError):
            EMPTY_GLOBAL.commit(local)

    def test_remove(self, ops):
        log = EMPTY_GLOBAL.append(ops[0]).append(ops[1])
        assert log.remove(ops[0]).all_ops() == (ops[1],)

    def test_index_of_missing_raises(self, ops):
        with pytest.raises(LogError):
            EMPTY_GLOBAL.index_of(ops[0])

    def test_ids(self, ops):
        log = EMPTY_GLOBAL.append(ops[0]).append(ops[1])
        assert log.ids() == frozenset({ops[0].op_id, ops[1].op_id})


def test_ops_minus(ops):
    assert ops_minus(ops[:4], [ops[1], ops[3]]) == (ops[0], ops[2])
    assert ops_minus((), ops) == ()
    assert ops_minus(ops[:2], ()) == tuple(ops[:2])


class TestProjectionNamespacing:
    """The shared per-node cache dict must never alias across families:
    distinct projection names with equal *values* stay distinct entries,
    and string projections can never collide with tuple-keyed memos."""

    def test_equal_values_different_names_do_not_alias(self, ops):
        log = EMPTY_LOCAL.append(ops[0], NotPushed())
        first = log._projection("L.test-a", lambda: (1, 2))
        second = log._projection("L.test-b", lambda: (3, 4))
        assert first == (1, 2)
        assert second == (3, 4)
        # both entries persist independently under their own names
        assert log._projection("L.test-a", lambda: ("clobbered",)) == (1, 2)
        assert log._projection("L.test-b", lambda: ("clobbered",)) == (3, 4)

    def test_local_and_global_prefixes_disjoint(self, ops):
        """Every LocalLog projection name is 'L.'-prefixed and every
        GlobalLog one 'G.'-prefixed, so a key computed for one class can
        never be read back by the other through a shared helper."""
        local = EMPTY_LOCAL.append(ops[0], Pushed())
        glob = EMPTY_GLOBAL.append(ops[0])
        local.ids(), local.packed(), local.pushed_ops()
        glob.ids(), glob.packed(), glob.all_ops()
        local_keys = {k for k in local._proj if isinstance(k, str)}
        global_keys = {k for k in glob._proj if isinstance(k, str)}
        assert local_keys and all(k.startswith("L.") for k in local_keys)
        assert global_keys and all(k.startswith("G.") for k in global_keys)

    def test_string_projection_never_collides_with_tuple_memos(self, ops):
        """The removal memo lives under the tuple key ('rm', op_id); a
        projection literally named "rm" must not read or clobber it."""
        log = EMPTY_LOCAL.append(ops[0], Pulled()).append(ops[1], Pulled())
        shrunk = log.remove(ops[0])  # populates the ("rm", op_id) memo
        assert log._projection("L.rm", lambda: "sentinel") == "sentinel"
        assert log.remove(ops[0]) is shrunk  # memo intact, same object
        assert log._projection("L.rm", lambda: None) == "sentinel"
