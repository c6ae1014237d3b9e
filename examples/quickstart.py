#!/usr/bin/env python3
"""Quickstart: drive the PUSH/PULL machine by hand, then let a TM do it.

Part 1 walks two concurrent transactions through the raw Figure 5 rules —
APP, PUSH, PULL, CMT — showing a criterion violation when they conflict.
Part 2 runs a small workload under a TL2-style optimistic TM and verifies
the committed history is serializable (Theorem 5.17, empirically) and,
in the same walk over the history, opaque (§6.1).
"""

from repro.checking.tms2 import decide_history
from repro.core import CriterionViolation, Machine, call, tx
from repro.runtime import WorkloadConfig, make_workload, run_experiment
from repro.specs import KVMapSpec, MemorySpec
from repro.tm import TL2TM


def part1_manual_machine() -> None:
    print("=" * 64)
    print("Part 1: the PUSH/PULL rules by hand (kvmap spec)")
    print("=" * 64)
    spec = KVMapSpec()
    machine = Machine(spec)

    # Two transactions: t0 put/get on key 'a', t1 puts key 'b'.
    machine, t0 = machine.spawn(tx(call("put", "a", 5), call("get", "a")))
    machine, t1 = machine.spawn(tx(call("put", "b", 7)))

    machine = machine.app(t0)  # APP put('a',5)
    op_put_a = machine.thread(t0).local[0].op
    print("t0 APP   :", op_put_a.pretty())

    machine = machine.app(t1)  # APP put('b',7) — concurrent, local only
    op_put_b = machine.thread(t1).local[0].op
    print("t1 APP   :", op_put_b.pretty())

    machine = machine.push(t0, op_put_a)  # publish t0's put
    machine = machine.push(t1, op_put_b)  # disjoint keys commute: both fine
    print("both PUSHed; global log:", [e.op.pretty() for e in machine.global_log])

    machine = machine.app(t0)  # APP get('a') — sees its own put: returns 5
    op_get_a = machine.thread(t0).local[1].op
    print("t0 APP   :", op_get_a.pretty())
    machine = machine.push(t0, op_get_a)

    machine = machine.cmt(t0)
    machine = machine.cmt(t1)
    print("committed:", [e.op.pretty() for e in machine.global_log.entries])

    # Now a conflict: two puts to the SAME key cannot both be in flight.
    machine2 = Machine(spec)
    machine2, a = machine2.spawn(tx(call("put", "k", 1)))
    machine2, b = machine2.spawn(tx(call("put", "k", 2)))
    machine2 = machine2.app(a)
    machine2 = machine2.app(b)
    machine2 = machine2.push(a, machine2.thread(a).local[0].op)
    try:
        machine2.push(b, machine2.thread(b).local[0].op)
    except CriterionViolation as exc:
        print(f"conflicting push rejected -> {exc}")


def part2_tm_run() -> None:
    print()
    print("=" * 64)
    print("Part 2: a TL2-style optimistic TM on a read/write workload")
    print("=" * 64)
    spec = MemorySpec()
    config = WorkloadConfig(
        transactions=40, ops_per_tx=4, keys=8, read_ratio=0.7, seed=7
    )
    programs = make_workload("readwrite", config)
    result = run_experiment(TL2TM(), spec, programs, concurrency=4, seed=11)
    print(result.summary_row())
    # Re-verify explicitly (run_experiment already did), and judge
    # opacity in the same walk: TL2 is an opaque strategy.
    history = result.runtime.history
    verdict = decide_history(
        spec, history, result.runtime.machine.global_log.committed_ops()
    )
    commit_order = tuple(
        record.tx_id
        for record in sorted(history.committed_records(), key=lambda r: r.end_time)
        if record.ops
    )
    print(f"serializable = {verdict.serializable}, opaque = {verdict.opaque}")
    print(
        f"serialization witness: commit order works = "
        f"{verdict.serial_witness == commit_order}"
    )


if __name__ == "__main__":
    part1_manual_machine()
    part2_tm_run()
