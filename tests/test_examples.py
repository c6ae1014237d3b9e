"""Smoke tests: every example script runs to completion and prints its
headline facts.  Examples are the public face of the library; breaking
one is a release blocker."""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name):
    buffer = io.StringIO()
    argv = sys.argv
    sys.argv = [name]
    try:
        with redirect_stdout(buffer):
            runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = argv
    return buffer.getvalue()


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "conflicting push rejected" in out
        assert "serializable=yes" in out

    def test_boosting_hashtable(self):
        out = run_example("boosting_hashtable.py")
        assert "parallel boosted execution" in out
        assert "UNPUSH" in out
        assert "serializable=yes" in out

    def test_hybrid_htm_boosting(self):
        out = run_example("hybrid_htm_boosting.py")
        assert "shared view during HTM recovery" in out
        lines = out.splitlines()
        start = lines.index("Figure 7, from the tracer's rule spans:") + 1
        assert lines[start:start + 16] == [
            "t0: APP(skiplist.add('foo'))",
            "t0: PUSH(skiplist.add('foo'))",
            "t0: APP(size.inc())",
            "t0: APP(hashT.put('foo', 'bar'))",
            "t0: PUSH(hashT.put('foo', 'bar'))",
            "t0: APP(x.inc())",
            "t0: PUSH(size.inc())",
            "t0: PUSH(x.inc())",
            "t0: UNPUSH(x.inc())",
            "t0: UNPUSH(size.inc())",
            "t0: UNAPP(x.inc())",
            "t0: APP(y.inc())",
            "t0: PUSH(size.inc())",
            "t0: PUSH(y.inc())",
            "t0: CMT",
            "final state : {'hashT': (('foo', 'bar'),), 'size': 1, "
            "'skiplist': frozenset({'foo'}), 'x': 0, 'y': 1}",
        ]
        assert "skiplist.add" in out and "hashT.put" in out
        assert "serializable=yes" in out

    def test_dependent_transactions(self):
        out = run_example("dependent_transactions.py")
        assert "read the uncommitted value" in out
        assert "PUSH blocked" in out
        assert "detangled" in out

    def test_order_processing(self):
        out = run_example("order_processing.py")
        assert "invariant holds" in out
        assert out.count("serializable=yes") == 4

    def test_extensions_tour(self):
        out = run_example("extensions_tour.py")
        assert "partial rewinds" in out
        assert "RELEASED" in out
        assert "committed pieces" in out

    @pytest.mark.slow
    def test_stm_comparison(self):
        out = run_example("stm_comparison.py")
        assert out.count("serializable=yes") >= 20
        assert "NO" not in out.replace("NONDET", "")

    @pytest.mark.slow
    def test_model_checking_demo(self):
        out = run_example("model_checking_demo.py")
        assert "OK" in out
        assert "VIOLATION" not in out
