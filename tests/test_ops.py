"""Operation records and id generation (§3 'Operations and logs')."""

import pytest

from repro.core.errors import LogError
from repro.core.ops import IdGenerator, Op, make_op


class TestOp:
    def test_equality_is_by_id(self):
        a = Op("put", ("k", 1), None, 7)
        b = Op("get", ("k",), 1, 7)
        assert a == b  # same id, different payloads: the paper's lifting

    def test_inequality_different_ids(self):
        a = Op("put", ("k", 1), None, 1)
        b = Op("put", ("k", 1), None, 2)
        assert a != b

    def test_hash_follows_id(self):
        a = Op("put", ("k", 1), None, 7)
        b = Op("get", ("k",), 1, 7)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_pretty_mentions_everything(self):
        op = Op("put", ("k", 5), "old", 12)
        text = op.pretty()
        assert "put" in text and "'k'" in text and "5" in text
        assert "'old'" in text and "#12" in text

    def test_not_equal_to_other_types(self):
        assert Op("m", (), None, 1) != "m"


class TestIdGenerator:
    def test_fresh_ids_are_unique(self):
        gen = IdGenerator()
        ids = [gen.fresh() for _ in range(1000)]
        assert len(set(ids)) == 1000

    def test_start_offset(self):
        gen = IdGenerator(start=100)
        assert gen.fresh() == 100

    def test_thread_safety(self):
        import threading

        gen = IdGenerator()
        results = []

        def worker():
            results.extend(gen.fresh() for _ in range(500))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 2000


class TestMakeOp:
    def test_defaults(self):
        op = make_op("inc")
        assert op.method == "inc"
        assert op.args == ()
        assert op.ret is None

    def test_explicit_id(self):
        op = make_op("inc", op_id=99)
        assert op.op_id == 99

    def test_ids_and_op_id_conflict(self):
        with pytest.raises(ValueError):
            make_op("inc", ids=IdGenerator(), op_id=1)

    def test_generator_argument(self):
        gen = IdGenerator(start=500)
        op = make_op("inc", ids=gen)
        assert op.op_id == 500
