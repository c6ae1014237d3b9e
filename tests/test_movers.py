"""Mover relations (Definition 4.1) — exact oracles per specification.

These pin down the commutativity structure the paper's evaluation relies
on (e.g. "operations on distinct keys commute" for boosting, "a read of
the pre-write value is no mover past the write" for optimistic validation).
"""

import pytest

from repro.core.ops import make_op
from repro.core.precongruence import both_mover, left_mover, right_mover
from repro.specs import (
    BankSpec,
    CounterSpec,
    KVMapSpec,
    MemorySpec,
    QueueSpec,
    SetSpec,
    StackSpec,
)


class TestMemoryMovers:
    spec = MemorySpec()

    def test_different_locations_commute(self):
        w1 = make_op("write", ("x", 1), None)
        w2 = make_op("write", ("y", 2), None)
        assert both_mover(self.spec, w1, w2)

    def test_same_location_writes_conflict(self):
        w1 = make_op("write", ("x", 1), None)
        w2 = make_op("write", ("x", 2), None)
        assert not left_mover(self.spec, w1, w2)
        assert not left_mover(self.spec, w2, w1)

    def test_same_value_writes_commute(self):
        # Degenerate but real: writing the same value twice is symmetric.
        w1 = make_op("write", ("x", 7), None)
        w2 = make_op("write", ("x", 7), None)
        assert both_mover(self.spec, w1, w2)

    def test_reads_commute(self):
        r1 = make_op("read", ("x",), 0)
        r2 = make_op("read", ("x",), 0)
        assert both_mover(self.spec, r1, r2)

    def test_read_before_write_is_not_mover(self):
        # r(x)->0 · w(x,1): swapping gives w·r->0 which reads 1 — refused.
        r = make_op("read", ("x",), 0)
        w = make_op("write", ("x", 1), None)
        assert not left_mover(self.spec, r, w)

    def test_read_of_written_value_moves_left_of_write(self):
        # r(x)->1 · w(x,1): the swap w·r->1 is allowed and state-equal.
        r = make_op("read", ("x",), 1)
        w = make_op("write", ("x", 1), None)
        assert left_mover(self.spec, r, w)

    def test_inconsistent_reads_vacuously_move(self):
        # r->0 · r->1 is never allowed, so ◁ holds vacuously.
        r0 = make_op("read", ("x",), 0)
        r1 = make_op("read", ("x",), 1)
        assert left_mover(self.spec, r0, r1)

    def test_right_mover_is_flipped_left(self):
        r = make_op("read", ("x",), 0)
        w = make_op("write", ("x", 1), None)
        assert right_mover(self.spec, w, r) == left_mover(self.spec, r, w)


class TestCounterMovers:
    spec = CounterSpec()

    def test_mutators_commute(self):
        assert both_mover(self.spec, make_op("inc", (), None), make_op("dec", (), None))
        assert both_mover(self.spec, make_op("add", (5,), None), make_op("inc", (), None))

    def test_get_conflicts_with_inc(self):
        g = make_op("get", (), 0)
        i = make_op("inc", (), None)
        assert not left_mover(self.spec, g, i)

    def test_gets_commute(self):
        g1 = make_op("get", (), 3)
        g2 = make_op("get", (), 3)
        assert both_mover(self.spec, g1, g2)


class TestSetMovers:
    spec = SetSpec()

    def test_distinct_elements_commute(self):
        a = make_op("add", ("x",), True)
        b = make_op("remove", ("y",), True)
        assert both_mover(self.spec, a, b)

    def test_add_add_same_element_conflicts(self):
        a1 = make_op("add", ("x",), True)
        a2 = make_op("add", ("x",), True)
        # add->True then add->True is never allowed (second must fail), so
        # ◁ is vacuous... both orders are disallowed, hence movers hold.
        assert left_mover(self.spec, a1, a2)

    def test_successful_add_vs_failed_add(self):
        ok = make_op("add", ("x",), True)
        fail = make_op("add", ("x",), False)
        # ok·fail is allowed (x absent); fail·ok requires x present then
        # absent — impossible. Not a mover.
        assert not left_mover(self.spec, ok, fail)

    def test_failed_mutators_commute_with_consistent_reads(self):
        fail = make_op("add", ("x",), False)  # x present, no state change
        seen = make_op("contains", ("x",), True)
        assert both_mover(self.spec, fail, seen)

    def test_add_remove_same_element(self):
        add = make_op("add", ("x",), True)
        rem = make_op("remove", ("x",), True)
        # add->T then remove->T allowed from x∉S; swap: remove->T needs
        # x∈S — different precondition. Not a mover.
        assert not left_mover(self.spec, add, rem)


class TestKVMapMovers:
    spec = KVMapSpec()

    def test_distinct_keys_commute(self):
        # §2's proof obligation: put(k1,v1) and put(k2,v2) with k1≠k2.
        p1 = make_op("put", ("k1", "v1"), None)
        p2 = make_op("put", ("k2", "v2"), None)
        assert both_mover(self.spec, p1, p2)

    def test_same_key_puts_conflict(self):
        p1 = make_op("put", ("k", 1), None)
        p2 = make_op("put", ("k", 2), 1)
        # p1·p2 allowed from k unbound; p2 returns 1 (p1's value). Swap:
        # p2 first would return None ≠ 1. Not a mover.
        assert not left_mover(self.spec, p1, p2)

    def test_get_vs_put_same_key(self):
        g = make_op("get", ("k",), None)
        p = make_op("put", ("k", 5), None)
        assert not left_mover(self.spec, g, p)

    def test_gets_same_key_commute(self):
        g1 = make_op("get", ("k",), 5)
        g2 = make_op("get", ("k",), 5)
        assert both_mover(self.spec, g1, g2)


class TestQueueMovers:
    spec = QueueSpec()

    def test_enqs_do_not_commute(self):
        e1 = make_op("enq", ("a",), None)
        e2 = make_op("enq", ("b",), None)
        assert not both_mover(self.spec, e1, e2)

    def test_deq_empty_pairs_commute(self):
        d1 = make_op("deq", (), None)
        d2 = make_op("deq", (), None)
        assert both_mover(self.spec, d1, d2)

    def test_size_vs_enq(self):
        s = make_op("size", (), 0)
        e = make_op("enq", ("a",), None)
        assert not left_mover(self.spec, s, e)


class TestStackMovers:
    spec = StackSpec()

    def test_pushes_do_not_commute(self):
        p1 = make_op("push", ("a",), None)
        p2 = make_op("push", ("b",), None)
        assert not both_mover(self.spec, p1, p2)

    def test_push_pop_pair(self):
        push = make_op("push", ("a",), None)
        pop = make_op("pop", (), "a")
        # push(a)·pop->a is allowed anywhere; pop->a first requires a on
        # top already — not universal. Not a mover.
        assert not left_mover(self.spec, push, pop)


class TestBankMovers:
    spec = BankSpec()

    def test_different_accounts_commute(self):
        d = make_op("deposit", ("a", 5), None)
        w = make_op("withdraw", ("b", 5), True)
        assert both_mover(self.spec, d, w)

    def test_deposits_same_account_commute(self):
        d1 = make_op("deposit", ("a", 5), None)
        d2 = make_op("deposit", ("a", 7), None)
        assert both_mover(self.spec, d1, d2)

    def test_successful_withdrawals_commute(self):
        # The abstract-conflict showcase: success implies enough balance
        # for both orders.
        w1 = make_op("withdraw", ("a", 3), True)
        w2 = make_op("withdraw", ("a", 4), True)
        assert both_mover(self.spec, w1, w2)

    def test_failed_withdraw_conflicts_with_deposit(self):
        fail = make_op("withdraw", ("a", 5), False)
        dep = make_op("deposit", ("a", 10), None)
        # fail·dep allowed from balance<5; dep·fail needs balance+10<5 —
        # impossible. Not a mover.
        assert not left_mover(self.spec, fail, dep)

    def test_balance_vs_deposit(self):
        bal = make_op("balance", ("a",), 0)
        dep = make_op("deposit", ("a", 1), None)
        assert not left_mover(self.spec, bal, dep)

    def test_withdraw_not_left_mover_of_equal_balance_read(self):
        # Regression: from balance 4, withdraw(2)·balance→2 is allowed but
        # balance→2·withdraw(2) is not (the read sees 4).  The state basis
        # must reach 2+2=4 even though both ops mention the same amount —
        # a deduped amount set once hid this state from the oracle.
        w = make_op("withdraw", ("p", 2), True)
        bal = make_op("balance", ("p",), 2)
        assert not left_mover(self.spec, w, bal)


class TestMemoizedMovers:
    def test_cache_consistency(self):
        from repro.core.spec import MemoizedMovers

        spec = KVMapSpec()
        movers = MemoizedMovers(spec)
        a = make_op("put", ("k1", 1), None)
        b = make_op("put", ("k2", 2), None)
        first = movers.left_mover(a, b)
        second = movers.left_mover(a, b)
        assert first == second == spec.left_mover(a, b)
        assert movers.commutes(a, b)

    def test_cache_keys_are_payload_level(self):
        from repro.core.spec import MemoizedMovers

        spec = CounterSpec()
        movers = MemoizedMovers(spec)
        a1 = make_op("inc", (), None, op_id=1)
        a2 = make_op("inc", (), None, op_id=2)
        movers.left_mover(a1, a2)
        # Same payloads, different ids: must hit the cache (len 1).
        movers.left_mover(
            make_op("inc", (), None, op_id=3), make_op("inc", (), None, op_id=4)
        )
        assert len(movers._left) == 1

    def test_rebased_spec_shares_its_base_memo(self):
        from repro.core.spec import RebasedStateSpec, shared_movers

        spec = KVMapSpec()
        rebased = RebasedStateSpec(RebasedStateSpec(spec, {"k": 1}), {"k": 2})
        assert shared_movers(rebased) is shared_movers(spec)

    def test_shared_memos_die_with_their_spec(self):
        import gc
        import weakref

        from repro.core.spec import shared_denotations, shared_movers

        spec = KVMapSpec()
        movers = weakref.ref(shared_movers(spec))
        denots = weakref.ref(shared_denotations(spec))
        del spec
        gc.collect()
        assert movers() is None and denots() is None

    def test_shared_memos_do_not_travel_with_a_pickled_spec(self):
        import pickle

        from repro.core.spec import shared_denotations, shared_movers

        spec = KVMapSpec()
        memo = shared_movers(spec)
        shared_denotations(spec)
        memo.left_mover(make_op("put", ("k1", 1), None), make_op("put", ("k2", 2), None))
        copy = pickle.loads(pickle.dumps(spec))
        fresh = shared_movers(copy)
        assert fresh is not memo and fresh._left == {}
        assert shared_denotations(copy) is not shared_denotations(spec)
        assert shared_movers(spec) is memo  # the original keeps its memo
