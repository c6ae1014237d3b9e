"""The atomic (reference) semantics of Figure 3."""

import pytest

from repro.core.atomic import (
    atomic_final_logs,
    bigstep,
    payloads,
    run_transaction_atomically,
)
from repro.core.language import Star, call, choice, seq, tx
from repro.core.ops import IdGenerator
from repro.specs import CounterSpec, MemorySpec, SetSpec


def suffix_payloads(spec, code, log=(), fuel=16):
    ids = IdGenerator()
    return {payloads(s) for s in bigstep(spec, code, tuple(log), ids, fuel)}


class TestBigstep:
    def test_single_call(self):
        outcomes = suffix_payloads(MemorySpec(), call("write", "x", 1))
        assert outcomes == {(("write", ("x", 1), None),)}

    def test_sequence_computes_rets(self):
        outcomes = suffix_payloads(
            MemorySpec(), seq(call("write", "x", 5), call("read", "x"))
        )
        assert outcomes == {
            (("write", ("x", 5), None), ("read", ("x",), 5)),
        }

    def test_choice_enumerates_both(self):
        outcomes = suffix_payloads(
            CounterSpec(), choice(call("inc"), call("dec"))
        )
        assert outcomes == {
            (("inc", (), None),),
            (("dec", (), None),),
        }

    def test_fin_yields_empty_suffix(self):
        outcomes = suffix_payloads(CounterSpec(), choice(call("inc"), seq()))
        assert () in outcomes
        assert len(outcomes) == 2

    def test_star_bounded_by_fuel(self):
        outcomes = suffix_payloads(CounterSpec(), Star(call("inc")), fuel=3)
        lengths = {len(o) for o in outcomes}
        assert lengths == {0, 1, 2, 3}

    def test_continues_from_log(self):
        spec = MemorySpec()
        base = tuple()
        ids = IdGenerator()
        first = next(iter(bigstep(spec, call("write", "x", 9), base, ids)))
        outcomes = suffix_payloads(spec, call("read", "x"), log=first)
        assert outcomes == {(("read", ("x",), 9),)}


class TestRunTransactionAtomically:
    def test_wraps_tx(self):
        spec = CounterSpec()
        program = tx(call("inc"), call("get"))
        logs = {
            payloads(log)
            for log in run_transaction_atomically(spec, program, ())
        }
        assert logs == {(("inc", (), None), ("get", (), 1))}


class TestAtomicFinalLogs:
    def test_two_transactions_both_orders(self):
        spec = MemorySpec()
        t1 = tx(call("write", "x", 1))
        t2 = tx(call("write", "x", 2))
        finals = atomic_final_logs(spec, [t1, t2])
        assert finals == {
            (("write", ("x", 1), None), ("write", ("x", 2), None)),
            (("write", ("x", 2), None), ("write", ("x", 1), None)),
        }

    def test_rets_differ_by_order(self):
        spec = SetSpec()
        t1 = tx(call("add", "a"))
        t2 = tx(call("add", "a"))
        finals = atomic_final_logs(spec, [t1, t2])
        # whichever runs first returns True, the second False.
        assert finals == {
            (("add", ("a",), True), ("add", ("a",), False)),
        } or all(
            log[0][2] is True and log[1][2] is False for log in finals
        )

    def test_sequential_composition_of_txs(self):
        spec = CounterSpec()
        program = seq(tx(call("inc")), tx(call("inc")))
        finals = atomic_final_logs(spec, [program])
        assert finals == {(("inc", (), None), ("inc", (), None))}

    def test_empty_thread_list(self):
        assert atomic_final_logs(MemorySpec(), []) == frozenset({()})

    def test_choice_at_thread_level(self):
        spec = CounterSpec()
        program = choice(tx(call("inc")), tx(call("dec")))
        finals = atomic_final_logs(spec, [program])
        assert finals == {
            (("inc", (), None),),
            (("dec", (), None),),
        }

    def test_interleaving_is_per_transaction_not_per_op(self):
        # The atomic machine runs whole transactions: inc;get in one tx
        # never observes the other thread's inc in between its own ops...
        # it may only see it before or after the whole transaction.
        spec = CounterSpec()
        t1 = tx(call("inc"), call("get"))
        t2 = tx(call("inc"))
        finals = atomic_final_logs(spec, [t1, t2])
        gets = sorted(
            next(ret for m, a, ret in log if m == "get") for log in finals
        )
        assert gets == [1, 2]  # get==1 (t1 first) or get==2 (t2 first)
