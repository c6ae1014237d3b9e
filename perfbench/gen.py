"""Seeded traffic for the ``kv-durable-open`` workload.

The transaction stream is a pure function of the seed: the
program under test only ever sees the generated transactions, and no
module of the program feeds the generator, so an edit to the program's
own load generator cannot change what the benchmark sends.

Keys are bucketed per shard with the daemon's published placement rule
(CRC32 of ``"space:repr(key)"`` modulo the shard count), so a
"single-shard" transaction is single-shard by construction.  The run
cross-checks the daemon's own single/cross request counters against the
generator's, so a change of placement shows as a failed check instead of
as silently different traffic.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, List, Optional, Tuple

#: ``repro serve``'s default shard count, which the workload runs against
SHARDS = 2
#: distinct keys per keyed space (kvmap keys, bank accounts)
KEYS = 128


def placement(space: str, key: Optional[Any]) -> int:
    """The shard that owns ``key`` in ``space`` (unkeyed spaces: ``None``)."""
    token = f"{space}:{key!r}" if key is not None else f"{space}:*"
    return zlib.crc32(token.encode("utf-8")) % SHARDS


def key_pools(prefix: str, space: str) -> List[List[str]]:
    """``KEYS`` names split evenly over the shards, ``KEYS // SHARDS`` each."""
    per_shard = KEYS // SHARDS
    pools: List[List[str]] = [[] for _ in range(SHARDS)]
    index = 0
    while min(len(pool) for pool in pools) < per_shard:
        key = f"{prefix}{index}"
        pool = pools[placement(space, key)]
        if len(pool) < per_shard:
            pool.append(key)
        index += 1
    return pools


class Traffic:
    """An endless, seeded stream of wire transactions.

    ``next_txn()`` returns ``(ops, cross)``: the wire ops and whether the
    transaction deliberately spans both shards.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"perfbench:kv-durable-open:{seed}")
        self.kv = key_pools("k", "kvmap")
        self.bank = key_pools("acct", "bank")

    def next_txn(self) -> Tuple[List[List[Any]], bool]:
        """loadgen's ``mixed`` shape: kvmap, bank, counter and queue in
        equal parts; 80% of kvmap ops and bank transactions write; 20% of
        keyed transactions join one sub-transaction on each shard."""
        rng = self.rng
        space = rng.choice(("kvmap", "bank", "counter", "queue"))
        if space == "counter":
            return [["counter", "inc"], ["counter", "get"]], False
        if space == "queue":
            return [["queue", "enq", rng.randrange(1 << 16)], ["queue", "size"]], False
        build = self._kv_pair if space == "kvmap" else self._bank_side
        pools = self.kv if space == "kvmap" else self.bank
        if rng.random() < 0.2:
            first, second = rng.sample(range(SHARDS), 2)
            return build(pools[first]) + build(pools[second]), True
        return build(pools[rng.randrange(SHARDS)]), False

    def _kv_pair(self, pool: List[str]) -> List[List[Any]]:
        return [self._kv_op(pool) for _ in range(2)]

    def _kv_op(self, pool: List[str]) -> List[Any]:
        key = self.rng.choice(pool)
        if self.rng.random() < 0.2:
            return ["kvmap", "get", key]
        return ["kvmap", "put", key, self.rng.randrange(1 << 16)]

    def _bank_side(self, pool: List[str]) -> List[List[Any]]:
        rng = self.rng
        if rng.random() < 0.2:
            return [["bank", "balance", rng.choice(pool)]]
        src, dst = rng.sample(pool, 2)
        amount = rng.randrange(1, 50)
        # withdraw may answer False (insufficient funds): a committed
        # result, not a failure
        return [["bank", "deposit", dst, amount], ["bank", "withdraw", src, amount]]

    def read_back(self) -> List[List[List[Any]]]:
        """One single-op read transaction per kvmap key, bank account,
        counter and queue observation — the state a restart must keep."""
        reads: List[List[List[Any]]] = []
        for pool in self.kv:
            reads.extend([["kvmap", "get", key]] for key in pool)
        for pool in self.bank:
            reads.extend([["bank", "balance", acct]] for acct in pool)
        reads.append([["counter", "get"]])
        reads.append([["queue", "size"]])
        return reads


class ReplyChecker:
    """Checks that each reply answers its own request: the right number of
    results, each of the type its operation returns, and every kvmap value
    read back is one some request wrote to that key (or ``None``)."""

    def __init__(self) -> None:
        self.written: Dict[str, set] = {}
        self.mismatches = 0
        self.problems: List[str] = []

    def sent(self, ops: List[List[Any]]) -> None:
        for op in ops:
            if op[0] == "kvmap" and op[1] == "put":
                self.written.setdefault(op[2], set()).add(op[3])

    def check(self, ops: List[List[Any]], reply: Dict[str, Any]) -> bool:
        """``True`` when the reply is a commit; records any mismatch."""
        if not reply.get("ok"):
            return False
        results = reply.get("results")
        if not isinstance(results, list) or len(results) != len(ops):
            self._problem(ops, reply, "result count differs from op count")
            return True
        for op, result in zip(ops, results):
            space, method = op[0], op[1]
            if space == "kvmap":
                if result is not None and result not in self.written.get(op[2], ()):
                    self._problem(ops, reply, f"{op} returned a value never written")
            elif (space, method) == ("bank", "withdraw"):
                if not isinstance(result, bool):
                    self._problem(ops, reply, f"{op} returned {result!r}")
            elif (space, method) in (("bank", "deposit"), ("queue", "enq")):
                if result is not None:
                    self._problem(ops, reply, f"{op} returned {result!r}")
            elif method in ("balance", "get", "size"):
                if not isinstance(result, int) or isinstance(result, bool):
                    self._problem(ops, reply, f"{op} returned {result!r}")
        return True

    def _problem(self, ops, reply, why: str) -> None:
        self.mismatches += 1
        if len(self.problems) < 5:
            self.problems.append(f"{why}: request {ops} reply {reply}")
