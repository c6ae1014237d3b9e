#!/usr/bin/env python3
"""Section 7 / Figure 7, executable: boosting + HTM in one transaction.

The paper's §7 example:

.. code-block:: java

    BoostedConcurrentSkipList skiplist;
    BoostedConcurrentHashTable hashT;
    HTM int size;  HTM int x, y;

    atomic {
        skiplist.insert(foo);
        size++;
        hashT.map(foo => bar);
        if (*) x++; else y++;     // HTM conflict strikes at `x++`
    }

Figure 7 decomposes the recovery: the HTM operations (``size++``, ``x++``)
are PUSHed late, then UNPUSHed when the HTM signals a conflict — while the
expensive boosted effects *stay in the shared view* — the code partially
rewinds (UNAPP of ``x++`` only), takes the other branch (``y++``), pushes
the HTM operations again and commits.  This script replays Figure 7's rule
sequence literally on a traced machine and prints it as Figure 7's table
from the tracer's rule spans, then runs the generalised
:class:`~repro.tm.hybrid.HybridTM` driver on a workload.
"""

from repro.core import Machine, call, choice, tx
from repro.obs import RecordingTracer, format_figure7
from repro.runtime import run_experiment
from repro.specs import CounterSpec, KVMapSpec, SetSpec
from repro.specs.product import ProductSpec
from repro.tm import HybridTM

import random


def figure7_spec() -> ProductSpec:
    return ProductSpec(
        {
            "skiplist": SetSpec(),
            "hashT": KVMapSpec(),
            "size": CounterSpec(),
            "x": CounterSpec(),
            "y": CounterSpec(),
        }
    )


def part1_figure7_rule_sequence() -> None:
    print("=" * 64)
    print("Part 1: Figure 7's exact rule sequence")
    print("=" * 64)
    spec = figure7_spec()
    tracer = RecordingTracer()
    machine = Machine(spec, tracer=tracer)
    program = tx(
        call("skiplist.add", "foo"),
        call("size.inc"),
        call("hashT.put", "foo", "bar"),
        choice(call("x.inc"), call("y.inc")),  # the `if (*)` branch
    )
    machine, t = machine.spawn(program)

    def last_op(m):
        return m.thread(t).local[-1].op

    def do(rule, *args):
        nonlocal machine
        machine = getattr(machine, rule)(t, *args)

    # Transaction begins — boosted ops APP+PUSH at their linearization
    # point, HTM ops APP only (buffered):
    do("app")                      # APP(skiplist.insert(foo))
    op_skiplist = last_op(machine)
    do("push", op_skiplist)        # PUSH(skiplist.insert(foo))
    do("app")                      # APP(size++)
    op_size = last_op(machine)
    do("app")                      # APP(hashT.map(foo=>bar))
    op_hash = last_op(machine)
    do("push", op_hash)            # PUSH(hashT.map(foo=>bar))  — announced
    #                                before size++ although applied after!
    x_branch = next(
        c for c in machine.app_choices(t) if c[0].method == "x.inc"
    )
    do("app", x_branch)            # APP(x++)
    op_x = last_op(machine)

    # Push HTM ops (commit attempt):
    do("push", op_size)            # PUSH(size++)
    do("push", op_x)               # PUSH(x++)

    # HTM signals abort -> retract ONLY the HTM effects:
    do("unpush", op_x)             # UNPUSH(x++)
    do("unpush", op_size)          # UNPUSH(size++)
    boosted_still_shared = [e.op.method for e in machine.global_log]
    print("shared view during HTM recovery:", boosted_still_shared)
    assert boosted_still_shared == ["skiplist.add", "hashT.put"]

    # Rewind some code:
    do("unapp")                    # UNAPP(x++) — back to the `if (*)`

    # March forward again, other branch:
    y_branch = next(
        c for c in machine.app_choices(t) if c[0].method == "y.inc"
    )
    do("app", y_branch)            # APP(y++)
    op_y = last_op(machine)

    # Uninterleaved commit:
    do("push", op_size)            # PUSH(size++)
    do("push", op_y)               # PUSH(y++)
    do("cmt")                      # CMT

    print("Figure 7, from the tracer's rule spans:")
    print(format_figure7(tracer))
    final = dict(spec.replay(machine.global_log.all_ops()))
    print("final state :", final)
    assert final["x"] == 0 and final["y"] == 1 and final["size"] == 1


def part2_hybrid_workload() -> None:
    print()
    print("=" * 64)
    print("Part 2: generalised hybrid TM on a mixed workload")
    print("=" * 64)
    spec = figure7_spec()
    rng = random.Random(42)
    programs = []
    for i in range(24):
        programs.append(
            tx(
                call("skiplist.add", ("item", rng.randrange(8))),
                call("size.inc"),
                call("hashT.put", ("key", rng.randrange(8)), i),
                call("x.inc") if rng.random() < 0.5 else call("y.inc"),
            )
        )
    algorithm = HybridTM(htm_components=frozenset({"size", "x", "y"}))
    result = run_experiment(algorithm, spec, programs, concurrency=4, seed=9)
    print(result.summary_row())
    print("rule usage:", dict(sorted(result.rule_counts.items())))


if __name__ == "__main__":
    part1_figure7_rule_sequence()
    part2_hybrid_workload()
