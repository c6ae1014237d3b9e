"""Workload generators.

Transactions are straight-line programs (sequences of calls inside a
``tx`` block) drawn from seeded distributions.  The knobs mirror the
standard TM-evaluation axes: number of transactions, operations per
transaction, key-space size, access skew (zipf-ish via a power-law
sampler) and read ratio — contention rises as key spaces shrink, skew
grows or write ratios rise, which is how the benchmarks sweep the
contention axis of E2/E3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.core.language import Call, Tx, call, tx


@dataclass(frozen=True)
class WorkloadConfig:
    """Common knobs for the generators below."""

    transactions: int = 40
    ops_per_tx: int = 4
    keys: int = 16
    read_ratio: float = 0.7
    skew: float = 0.0  # 0 = uniform; >0 = power-law with this exponent
    seed: int = 0
    component: Optional[str] = None  # ProductSpec namespace prefix


def _sample_key(rng: random.Random, config: WorkloadConfig) -> int:
    if config.skew <= 0:
        return rng.randrange(config.keys)
    # Power-law sampling: weight(k) ∝ 1 / (k+1)^skew over the key space.
    weights = [1.0 / ((k + 1) ** config.skew) for k in range(config.keys)]
    total = sum(weights)
    point = rng.random() * total
    cumulative = 0.0
    for k, weight in enumerate(weights):
        cumulative += weight
        if point <= cumulative:
            return k
    return config.keys - 1


def _name(config: WorkloadConfig, method: str) -> str:
    if config.component:
        return f"{config.component}.{method}"
    return method


def readwrite_workload(config: WorkloadConfig) -> List[Tx]:
    """Read/write register transactions over ``memory`` (§6.2's substrate).

    Each transaction performs ``ops_per_tx`` accesses; each access is a
    ``read`` with probability ``read_ratio``, else a ``write`` of a fresh
    value.  Locations are ``("k", i)`` keys."""
    rng = random.Random(config.seed)
    programs: List[Tx] = []
    for tx_index in range(config.transactions):
        calls: List[Call] = []
        for op_index in range(config.ops_per_tx):
            key = ("k", _sample_key(rng, config))
            if rng.random() < config.read_ratio:
                calls.append(call(_name(config, "read"), key))
            else:
                value = tx_index * 1000 + op_index
                calls.append(call(_name(config, "write"), key, value))
        programs.append(tx(*calls))
    return programs


def bank_transfer_workload(config: WorkloadConfig) -> List[Tx]:
    """Bank transfers: withdraw from one account, deposit to another, with
    occasional balance audits (read-only transactions) at rate
    ``read_ratio``."""
    rng = random.Random(config.seed)
    programs: List[Tx] = []
    for _ in range(config.transactions):
        if rng.random() < config.read_ratio:
            accounts = [
                _sample_key(rng, config) for _ in range(max(1, config.ops_per_tx))
            ]
            calls = [
                call(_name(config, "balance"), ("acct", a)) for a in accounts
            ]
        else:
            source = _sample_key(rng, config)
            target = _sample_key(rng, config)
            amount = 1 + rng.randrange(3)
            calls = [
                call(_name(config, "withdraw"), ("acct", source), amount),
                call(_name(config, "deposit"), ("acct", target), amount),
            ]
        programs.append(tx(*calls))
    return programs


def set_churn_workload(config: WorkloadConfig) -> List[Tx]:
    """Set add/remove/contains churn — the boosting showcase (Fig. 2):
    disjoint elements commute, so abstract locking admits high parallelism."""
    rng = random.Random(config.seed)
    programs: List[Tx] = []
    for _ in range(config.transactions):
        calls = []
        for _ in range(config.ops_per_tx):
            element = ("e", _sample_key(rng, config))
            roll = rng.random()
            if roll < config.read_ratio:
                calls.append(call(_name(config, "contains"), element))
            elif roll < config.read_ratio + (1 - config.read_ratio) / 2:
                calls.append(call(_name(config, "add"), element))
            else:
                calls.append(call(_name(config, "remove"), element))
        programs.append(tx(*calls))
    return programs


def map_workload(config: WorkloadConfig) -> List[Tx]:
    """Hashtable put/get churn — Figure 2's workload proper."""
    rng = random.Random(config.seed)
    programs: List[Tx] = []
    counter = 0
    for _ in range(config.transactions):
        calls = []
        for _ in range(config.ops_per_tx):
            key = ("key", _sample_key(rng, config))
            if rng.random() < config.read_ratio:
                calls.append(call(_name(config, "get"), key))
            else:
                counter += 1
                calls.append(call(_name(config, "put"), key, counter))
        programs.append(tx(*calls))
    return programs


def counter_workload(config: WorkloadConfig) -> List[Tx]:
    """Counter increments with occasional gets — maximal abstract-level
    commutativity (all mutators commute), minimal read/write-level
    commutativity (every op touches the same word)."""
    rng = random.Random(config.seed)
    programs: List[Tx] = []
    for _ in range(config.transactions):
        calls = []
        for _ in range(config.ops_per_tx):
            if rng.random() < config.read_ratio:
                calls.append(call(_name(config, "get")))
            else:
                calls.append(call(_name(config, "inc")))
        programs.append(tx(*calls))
    return programs


def multiobject_workload(config: WorkloadConfig) -> List[Tx]:
    """Transactions spanning several objects of a
    :class:`~repro.specs.product.ProductSpec` with components ``table``
    (kvmap), ``tally`` (counter) and ``cache`` (memory) — the §4/§7 shape
    where PULLs can target one structure independently of the others.

    Each transaction touches the table (keyed access), bumps the tally
    and reads-or-writes a cache word; cross-component operations always
    commute, so contention concentrates on table keys and cache words.
    """
    rng = random.Random(config.seed)
    programs: List[Tx] = []
    for tx_index in range(config.transactions):
        key = ("k", _sample_key(rng, config))
        word = ("w", _sample_key(rng, config))
        calls = [
            call("table.get", key)
            if rng.random() < config.read_ratio
            else call("table.put", key, tx_index),
            call("tally.inc"),
        ]
        if rng.random() < config.read_ratio:
            calls.append(call("cache.read", word))
        else:
            calls.append(call("cache.write", word, tx_index))
        programs.append(tx(*calls))
    return programs


WORKLOADS: dict = {
    "readwrite": readwrite_workload,
    "bank": bank_transfer_workload,
    "set": set_churn_workload,
    "map": map_workload,
    "counter": counter_workload,
    "multiobject": multiobject_workload,
}


def make_workload(kind: str, config: WorkloadConfig) -> List[Tx]:
    """Dispatch by name (see :data:`WORKLOADS`)."""
    try:
        generator = WORKLOADS[kind]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {kind!r}; known: {known}")
    return generator(config)
