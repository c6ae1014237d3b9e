"""Queue/stack mover bound validation.

The queue/stack mover oracles enumerate contents up to
``MOVER_STATE_BOUND`` (plus padded contents at the lengths a ``size``
result pins); these property tests check the bound's adequacy by
comparing against a strictly larger enumeration — a verdict that flips
with more states would falsify the documented sufficiency argument.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.ops import Op, make_op
from repro.specs import QueueSpec, StackSpec
from repro.specs.queuespec import FRESH_A, FRESH_B, MOVER_STATE_BOUND

BOUND_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VALUES = ("a", "b")
#: ``size`` results drawn reach past the enumeration bound
SIZES = range(MOVER_STATE_BOUND + 4)


def queue_ops():
    return st.one_of(
        st.sampled_from(VALUES).map(lambda v: ("enq", (v,), None)),
        st.sampled_from(list(VALUES) + [None]).map(lambda v: ("deq", (), v)),
        st.sampled_from(list(VALUES) + [None]).map(lambda v: ("peek", (), v)),
        st.sampled_from(SIZES).map(lambda n: ("size", (), n)),
    )


def stack_ops():
    return st.one_of(
        st.sampled_from(VALUES).map(lambda v: ("push", (v,), None)),
        st.sampled_from(list(VALUES) + [None]).map(lambda v: ("pop", (), v)),
        st.sampled_from(list(VALUES) + [None]).map(lambda v: ("top", (), v)),
        st.sampled_from(SIZES).map(lambda n: ("size", (), n)),
    )


def check_on_states(spec, states, op1, op2):
    return all(spec._check_swap_on_state(s, op1, op2) for s in states)


def bigger_states(spec, op1, op2, bound):
    mentioned = tuple(dict.fromkeys(spec._mentioned(op1) + spec._mentioned(op2)))
    alphabet = mentioned + (FRESH_A, FRESH_B)
    states = [()]
    frontier = [()]
    for _ in range(bound):
        frontier = [s + (x,) for s in frontier for x in alphabet]
        states.extend(frontier)
    return states


@pytest.mark.parametrize("spec_cls,strategy", [
    (QueueSpec, queue_ops), (StackSpec, stack_ops),
])
@BOUND_SETTINGS
@given(data=st.data())
def test_bound_plus_two_agrees(spec_cls, strategy, data):
    spec = spec_cls()
    p1 = data.draw(strategy())
    p2 = data.draw(strategy())
    op1 = make_op(*p1)
    op2 = make_op(*p2)
    at_bound = check_on_states(spec, spec.mover_states(op1, op2), op1, op2)
    # every content up to two past the longest length any size pins
    sizes = [op.ret for op in (op1, op2) if op.method == "size"]
    bound = max([5] + [n + 2 for n in sizes])
    beyond = check_on_states(spec, bigger_states(spec, op1, op2, bound), op1, op2)
    assert at_bound == beyond, (op1, op2)


class TestKnownQueueVerdicts:
    spec = QueueSpec()

    def test_enq_enq_different_values(self):
        e1 = make_op("enq", ("a",), None)
        e2 = make_op("enq", ("b",), None)
        assert not self.spec.left_mover(e1, e2)

    def test_enq_enq_same_value(self):
        e1 = make_op("enq", ("a",), None)
        e2 = make_op("enq", ("a",), None)
        # identical payloads: both orders produce the same queue.
        assert self.spec.left_mover(e1, e2)

    def test_deq_nonempty_vs_enq(self):
        # deq->a · enq(b): swap enq(b) · deq->a — still dequeues a when a
        # was already at the front; equal results. A genuine left mover.
        deq = make_op("deq", (), "a")
        enq = make_op("enq", ("b",), None)
        assert self.spec.left_mover(deq, enq)

    def test_enq_vs_deq_of_it(self):
        # enq(a) · deq->a from empty; swapped deq->a first needs a present.
        enq = make_op("enq", ("a",), None)
        deq = make_op("deq", (), "a")
        assert not self.spec.left_mover(enq, deq)

    def test_deq_empty_vs_enq_not_mover(self):
        # deq->None · enq(a) (empty queue) vs enq(a) · deq->None: the
        # swapped order dequeues a. Not a mover.
        deq = make_op("deq", (), None)
        enq = make_op("enq", ("a",), None)
        assert not self.spec.left_mover(deq, enq)


class TestSizePastTheBound:
    """``size -> n`` pins a length past the enumeration bound: a swap with
    a length-changing operation is never vacuous there."""

    def test_queue_size_does_not_commute_with_enq(self):
        size, enq = make_op("size", (), 5), make_op("enq", (7,), None)
        assert not QueueSpec().commutes(size, enq)
        assert not QueueSpec().left_mover(enq, size)

    def test_stack_size_does_not_commute_with_push(self):
        size, push = make_op("size", (), 5), make_op("push", (7,), None)
        assert not StackSpec().commutes(size, push)
        assert not StackSpec().left_mover(push, size)

    def test_deq_is_not_a_left_mover_of_size_one_past_the_bound(self):
        deq, size = make_op("deq", (), "a"), make_op("size", (), 3)
        assert not QueueSpec().left_mover(deq, size)

    def test_size_still_commutes_with_observers(self):
        size = make_op("size", (), 5)
        assert QueueSpec().commutes(size, make_op("peek", (), "a"))
        assert StackSpec().commutes(size, make_op("top", (), "a"))
        assert QueueSpec().commutes(size, make_op("size", (), 5))


class TestKnownStackVerdicts:
    spec = StackSpec()

    def test_push_pop_roundtrip_not_movers(self):
        push = make_op("push", ("a",), None)
        pop = make_op("pop", (), "a")
        assert not self.spec.left_mover(push, pop)

    def test_top_top_commute(self):
        t1 = make_op("top", (), "a")
        t2 = make_op("top", (), "a")
        assert self.spec.left_mover(t1, t2)
        assert self.spec.left_mover(t2, t1)

    def test_pop_vs_push_other(self):
        # pop->a · push(b) vs push(b) · pop->... pops b. Not a mover.
        pop = make_op("pop", (), "a")
        push = make_op("push", ("b",), None)
        assert not self.spec.left_mover(pop, push)
