"""E6 — §6.1: opacity as a fragment of PUSH/PULL.

Claims regenerated:

* the no-uncommitted-PULL fragment is opaque: a TL2 run's history,
  aborted views included, linearizes against TMS2;
* the commutative relaxation: pulls of uncommitted operations are safe
  exactly when every reachable method of the puller commutes with them —
  measured as the acceptance rate of :func:`may_pull_uncommitted` across
  workload shapes (mutator-only counter transactions accept; observer
  transactions reject);
* enforcing the fragment costs ~nothing (OpaqueMachine wrapper overhead).
"""

import pytest

from benchmarks.conftest import run_quiet, series_line
from repro.core import Machine, call, tx
from repro.checking.tms2 import decide_history_opaque_tms2
from repro.core.opacity import OpaqueMachine, may_pull_uncommitted
from repro.runtime import WorkloadConfig, make_workload
from repro.specs import CounterSpec, MemorySpec
from repro.tm import TL2TM


@pytest.mark.benchmark(group="sec61-opacity")
def test_sec61_opaque_fragment_passes_opacity_check(benchmark):
    config = WorkloadConfig(transactions=6, ops_per_tx=3, keys=3,
                            read_ratio=0.5, seed=61)
    programs = make_workload("readwrite", config)

    def run_and_check():
        result = run_quiet(TL2TM(), MemorySpec(), programs, concurrency=3,
                           verify=True)
        verdict = decide_history_opaque_tms2(
            MemorySpec(), result.runtime.history
        )
        return result, verdict.violations

    result, violations = benchmark.pedantic(run_and_check, rounds=1,
                                            iterations=1)
    print()
    print(series_line("opacity", [
        ("commits", result.commits),
        ("aborted-views-checked", result.runtime.history.abort_count()),
        ("violations", len(violations)),
    ]))
    assert violations == []


@pytest.mark.benchmark(group="sec61-opacity")
def test_sec61_commutative_relaxation_acceptance(benchmark):
    """Static §6.1 check across transaction shapes."""
    spec = CounterSpec()

    def measure():
        machine = Machine(spec)
        machine, producer = machine.spawn(tx(call("inc")))
        machine = machine.app(producer)
        op = machine.thread(producer).local[0].op
        machine = machine.push(producer, op)
        shapes = {
            "mutators-only": tx(call("inc"), call("add", 3)),
            "with-observer": tx(call("inc"), call("get")),
            "observer-only": tx(call("get")),
        }
        verdicts = {}
        for name, shape in shapes.items():
            m2, consumer = machine.spawn(shape)
            verdicts[name] = may_pull_uncommitted(m2, consumer, op)
        return verdicts

    verdicts = benchmark(measure)
    print()
    print(series_line("may_pull_uncommitted", sorted(verdicts.items())))
    assert verdicts["mutators-only"] is True
    assert verdicts["with-observer"] is False
    assert verdicts["observer-only"] is False


@pytest.mark.benchmark(group="sec61-opacity")
def test_sec61_enforcement_overhead(benchmark):
    """OpaqueMachine wrapper vs raw machine on the same rule sequence."""
    spec = MemorySpec()

    def run_wrapped():
        machine = OpaqueMachine(Machine(spec))
        machine, tid = machine.spawn(tx(call("write", "x", 1), call("read", "x")))
        machine = machine.app(tid)
        machine = machine.push(tid, machine.thread(tid).local[0].op)
        machine = machine.app(tid)
        machine = machine.push(tid, machine.thread(tid).local[1].op)
        machine = machine.cmt(tid)
        return machine

    final = benchmark(run_wrapped)
    assert len(final.global_log.committed_ops()) == 2
