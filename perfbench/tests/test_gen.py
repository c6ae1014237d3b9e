from perfbench import gen


def stream(seed, n=400):
    traffic = gen.Traffic(seed)
    return [traffic.next_txn() for _ in range(n)]


def test_traffic_is_a_pure_function_of_the_seed():
    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_single_shard_transactions_stay_on_one_shard():
    def shards(ops):
        return {gen.placement(op[0], op[2] if op[0] in ("kvmap", "bank") else None) for op in ops}

    for ops, cross in stream(3, 2000):
        assert len(shards(ops)) == (2 if cross else 1), ops


def test_mixed_shape():
    txns = stream(5, 4000)
    spaces = [ops[0][0] for ops, _cross in txns]
    for space in ("kvmap", "bank", "counter", "queue"):
        assert 0.2 < spaces.count(space) / len(txns) < 0.3
    keyed = [cross for ops, cross in txns if ops[0][0] in ("kvmap", "bank")]
    assert 0.15 < sum(keyed) / len(keyed) < 0.25
    kv_ops = [op for ops, _ in txns for op in ops if op[0] == "kvmap"]
    writes = sum(op[1] == "put" for op in kv_ops) / len(kv_ops)
    assert 0.75 < writes < 0.85


def test_key_pools_and_read_back():
    assert [len(pool) for pool in gen.key_pools("k", "kvmap")] == [64, 64]
    assert len(gen.Traffic(1).read_back()) == 258


def test_placement_matches_the_daemon():
    from repro.serve.sharding import shard_of

    for space, key in (("kvmap", "k1"), ("bank", "acct9"), ("counter", None), ("queue", None)):
        assert gen.placement(space, key) == shard_of(space, key, gen.SHARDS)


def test_reply_checker():
    checker = gen.ReplyChecker()
    put, get = ["kvmap", "put", "k1", 5], ["kvmap", "get", "k1"]
    checker.sent([put])
    assert checker.check([put, get], {"ok": True, "results": [None, 5]})
    assert checker.mismatches == 0
    assert checker.check([get], {"ok": True, "results": [6]})
    assert checker.check([get, get], {"ok": True, "results": [5]})
    assert checker.mismatches == 2
    assert not checker.check([get], {"ok": False, "error": "conflict"})
