"""The transaction language: step/fin (Example 1), well-formedness."""

import gc
import weakref

import pytest

from repro.core.errors import LanguageError
from repro.core.language import (
    Call,
    Choice,
    Seq,
    Skip,
    SKIP,
    Star,
    Tx,
    call,
    check_well_formed,
    choice,
    fin,
    methods_of,
    seq,
    sorted_choices,
    step,
    tx,
)


class TestConstructors:
    def test_seq_empty_is_skip(self):
        assert seq() == SKIP

    def test_seq_single(self):
        c = call("m")
        assert seq(c) == c

    def test_seq_right_nested(self):
        a, b, c = call("a"), call("b"), call("c")
        assert seq(a, b, c) == Seq(a, Seq(b, c))

    def test_choice_requires_alternative(self):
        with pytest.raises(LanguageError):
            choice()

    def test_plus_operator(self):
        a, b = call("a"), call("b")
        assert a + b == Choice(a, b)

    def test_tx_wraps_seq(self):
        t = tx(call("a"), call("b"))
        assert isinstance(t, Tx)
        assert t.body == Seq(call("a"), call("b"))


class TestStep:
    def test_skip_has_no_steps(self):
        assert step(SKIP) == frozenset()

    def test_method_steps_to_skip(self):
        m = call("m", 1)
        assert step(m) == frozenset({(m, SKIP)})

    def test_seq_first(self):
        program = seq(call("a"), call("b"))
        assert step(program) == frozenset({(call("a"), call("b"))})

    def test_seq_skips_finished_first(self):
        program = Seq(SKIP, call("b"))
        assert step(program) == frozenset({(call("b"), SKIP)})

    def test_choice_unions(self):
        program = choice(call("a"), call("b"))
        results = step(program)
        assert (call("a"), SKIP) in results
        assert (call("b"), SKIP) in results

    def test_paper_example(self):
        # c = tx (skip ; (c1 + (m + n)) ; c2)  =>  (n, c2) ∈ step(c)
        c1, c2 = call("c1"), call("c2")
        program = Tx(seq(SKIP, choice(c1, choice(call("m"), call("n"))), c2))
        assert (call("n"), c2) in step(program)

    def test_star_continues_looping(self):
        program = Star(call("m"))
        assert (call("m"), program) in step(program)

    def test_choice_with_skip_branch(self):
        # (m + skip) ; n : can reach m (then n) or n directly
        program = seq(choice(call("m"), SKIP), call("n"))
        results = step(program)
        assert (call("m"), call("n")) in results
        assert (call("n"), SKIP) in results


class TestFin:
    def test_skip(self):
        assert fin(SKIP)

    def test_method(self):
        assert not fin(call("m"))

    def test_seq_both(self):
        assert fin(Seq(SKIP, SKIP))
        assert not fin(Seq(SKIP, call("m")))

    def test_choice_either(self):
        assert fin(choice(call("m"), SKIP))
        assert not fin(choice(call("m"), call("n")))

    def test_star_always(self):
        assert fin(Star(call("m")))

    def test_tx_delegates(self):
        assert fin(Tx(SKIP))
        assert not fin(Tx(call("m")))


class TestWellFormed:
    def test_call_outside_tx_rejected(self):
        with pytest.raises(LanguageError):
            check_well_formed(call("m"))

    def test_call_inside_tx_ok(self):
        check_well_formed(tx(call("m")))

    def test_nested_tx_rejected(self):
        with pytest.raises(LanguageError):
            check_well_formed(Tx(Tx(call("m"))))

    def test_seq_of_txs_ok(self):
        check_well_formed(seq(tx(call("a")), tx(call("b"))))

    def test_star_of_tx_ok(self):
        check_well_formed(Star(tx(call("a"))))


class TestMethodsOf:
    def test_collects_all_occurrences(self):
        program = tx(call("a"), choice(call("b", 1), call("c")), Star(call("d")))
        assert methods_of(program) == frozenset(
            {call("a"), call("b", 1), call("c"), call("d")}
        )

    def test_skip_empty(self):
        assert methods_of(SKIP) == frozenset()


class TestHashability:
    def test_programs_are_hashable(self):
        p = tx(call("a"), choice(call("b"), SKIP))
        assert hash(p) == hash(tx(call("a"), choice(call("b"), SKIP)))

    def test_repr_roundtrip_readable(self):
        p = tx(call("a", 1), call("b"))
        text = repr(p)
        assert "a(1)" in text and "b()" in text


class TestNodeMemo:
    """``step`` and ``fin`` memoize on the (immutable) node itself, so
    the memo lives exactly as long as the program it describes."""

    def test_repeated_calls_on_one_node_return_the_same_object(self):
        program = tx(call("a", 1), choice(call("b"), Star(call("c"))))
        first = step(program)
        assert step(program) is first
        assert fin(program) is fin(program) is False
        (_, rest), = [pair for pair in first if pair[0] == call("a", 1)]
        assert step(rest) is step(rest)

    def test_structurally_equal_nodes_get_equal_results(self):
        def build():
            return tx(choice(call("m", 1), SKIP), Star(call("n")))

        one, two = build(), build()
        assert one is not two
        assert step(one) == step(two)
        assert fin(one) == fin(two) is True

    def test_the_memo_dies_with_its_node(self):
        program = tx(call("a", 1), call("b", 2))
        ((_, rest),) = step(program)
        assert not fin(program)
        refs = [weakref.ref(program), weakref.ref(rest)]
        del program, rest
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_a_stepped_call_is_freed_by_refcount(self):
        """A ``Call``'s step result holds the node itself, so it is not
        memoized: that memo would be a cycle only the collector frees."""
        gc.disable()
        try:
            node = tx(call("a", 1), call("b", 2)).body.first
            step(node)
            sorted_choices(node)
            fin(node)
            ref = weakref.ref(node)
            del node
            assert ref() is None
        finally:
            gc.enable()


class TestLongPrograms:
    """``tx(*calls)`` nests one ``Seq`` per call; nothing may recurse per
    operation, or a program longer than the interpreter's stack fails."""

    N = 5000

    def build(self, last=N - 1):
        return tx(*[call("get", i) for i in range(self.N - 1)], call("get", last))

    def test_hash_eq_and_repr(self):
        one, two = self.build(), self.build()
        assert one is not two
        assert hash(one) == hash(two) and one == two
        assert one != self.build(last=-1) and self.build(last=-1) != one
        assert len({one, two}) == 1
        text = repr(one)
        assert text.startswith("tx (get(0) ; (get(1) ; ") and text.endswith(
            f"get({self.N - 1})" + ")" * (self.N - 1)
        )

    def test_step_fin_and_sorted_choices_walk_the_whole_program(self):
        code, calls = self.build().body, []
        while not isinstance(code, Skip):
            assert not fin(code)
            ((node, rest),) = step(code)
            assert sorted_choices(code) == ((node, rest),)
            calls.append(node)
            code = rest
        assert calls == [call("get", i) for i in range(self.N)]

    def test_methods_of(self):
        assert methods_of(self.build()) == frozenset(
            call("get", i) for i in range(self.N)
        )

    def test_hash_is_the_dataclass_value(self):
        a, b = call("a", 1), call("b")
        assert hash(a) == hash(("a", (1,)))
        assert hash(SKIP) == hash(())
        assert hash(Seq(a, b)) == hash((a, b))
        assert hash(Choice(a, Star(b))) == hash((a, Star(b)))
        assert hash(Tx(b)) == hash((b,))

    def test_a_pickled_node_rebuilds_its_hash(self):
        import pickle

        program = tx(call("put", "k", 1), choice(call("get", "k"), SKIP))
        step(program)  # a memo on the node must not travel
        copy = pickle.loads(pickle.dumps(program))
        assert copy == program and hash(copy) == hash(program)
        assert "_step" not in copy.__dict__
