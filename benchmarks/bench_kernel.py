"""E8 — incremental-kernel throughput benchmark (``BENCH_kernel.json``).

Measures the model checker end to end on the E8 scopes and compares
against the pre-refactor baseline committed in ``BENCH_kernel.json``:

* **states/sec** — untraced exhaustive exploration (best of ``--repeat``),
  the number every kernel optimisation is accountable to;
* **criterion-checks/sec and cache hit rates** — a traced pass collects
  the kernel's ``repro.obs`` counters (``denot.hit/miss``,
  ``mover.left.hit/miss``, ``mover.commutes.hit/miss``) and its
  ``packed.kernel`` memo gauges, and derives the denotation/mover cache
  hit rates.  The run *fails* (exit 1) if those counters are absent — a
  silent tracing regression would otherwise make the hit rates
  unfalsifiable;
* **verdict identity** — states, transitions, final states and rule
  counts must equal the baseline's recorded verdict: a kernel that got
  faster by exploring a different state space did not get faster.

This is a standalone script, not a pytest-benchmark module, so CI can run
it cheaply (``--tiny`` explores the smallest scope only) and publish the
results JSON as an artifact::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # full E8
    PYTHONPATH=src python benchmarks/bench_kernel.py --tiny     # CI smoke

The committed ``BENCH_kernel.json`` holds only the *frozen* baselines;
every run writes its results to a gitignored file under
``benchmarks/out/`` so benchmarking never dirties the work tree.  Pass
``--refresh-baseline`` to deliberately overwrite the committed baselines
with this run's numbers (the ratchet — a reviewed, intentional act).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Optional

from repro.checking.model_checker import ExploreOptions, explore
from repro.cli import SCOPES
from repro.obs import RecordingTracer

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_kernel.json"
DEFAULT_OUT = REPO_ROOT / "benchmarks" / "out" / "BENCH_kernel.current.json"

FULL_SCOPE = "kvmap-branch"
TINY_SCOPE = "mem-ww"

#: The kernel's cache instrumentation.  Every name must show up (with a
#: nonzero total per hit/miss pair) in a traced exploration.
REQUIRED_COUNTERS = (
    "denot.hit",
    "denot.miss",
    "mover.left.hit",
    "mover.left.miss",
    "mover.commutes.hit",
    "mover.commutes.miss",
)


def _explore_scope(name: str, tracer=None):
    """One POR-off exploration of ``name``, rule-traced on ``tracer`` when
    one is given."""
    spec_cls, programs = SCOPES[name]
    # POR off: this benchmark isolates per-state kernel cost, and its
    # committed baselines are full-exploration verdicts (the reduced
    # state space has its own baseline file, BENCH_por.json).
    options = (
        ExploreOptions(tracer=tracer, trace_rules=True, por=False)
        if tracer is not None
        else ExploreOptions(por=False)
    )
    start = time.perf_counter()
    report = explore(spec_cls(), programs, options)
    return report, time.perf_counter() - start


def measure_throughput(name: str, repeat: int) -> dict:
    """Untraced states/sec (best of ``repeat``) plus the verdict."""
    best: Optional[float] = None
    report = None
    for _ in range(repeat):
        report, elapsed = _explore_scope(name)
        best = elapsed if best is None or elapsed < best else best
    return {
        "scope": name,
        "states_per_sec": round(report.states / best, 1),
        "elapsed_sec": round(best, 4),
        "repeat": repeat,
        "verdict": {
            "states": report.states,
            "transitions": report.transitions,
            "final_states": report.final_states,
            "rule_counts": dict(sorted(report.rule_counts.items())),
            "ok": report.ok,
        },
    }


def measure_counters(name: str) -> dict:
    """Traced pass: kernel cache counters, hit rates, criterion-checks/sec
    and the packed-kernel gauges.

    Rule tracing walks the same memoized expansion as the untraced run but
    records every transition, so this never contributes to the
    throughput figure.

    Exploration only consults the denotation and left-mover memos; the
    ``mover.commutes`` memo's consumer is the conflict-graph oracle, so a
    small traced runtime run plus :func:`conflict_serializable` over its
    committed history drives that cache through its natural caller.
    """
    from repro.core.conflictgraph import conflict_serializable
    from repro.runtime import WorkloadConfig, make_workload, run_experiment
    from repro.specs import get_spec
    from repro.tm import ALL_ALGORITHMS

    tracer = RecordingTracer()
    _, elapsed = _explore_scope(name, tracer=tracer)

    config = WorkloadConfig(
        transactions=12, ops_per_tx=3, keys=4, read_ratio=0.5, seed=7
    )
    spec = get_spec("counter")
    start = time.perf_counter()
    result = run_experiment(
        ALL_ALGORITHMS["boosting"](), spec,
        make_workload("counter", config),
        concurrency=3, seed=7, tracer=tracer,
    )
    serializable, _, _ = conflict_serializable(
        spec, result.runtime.history, result.runtime.machine
    )
    elapsed += time.perf_counter() - start
    if not serializable:
        raise AssertionError(
            "conflict-graph pass found a non-serializable boosting run"
        )

    counts = {c: tracer.counts.get(c, 0) for c in REQUIRED_COUNTERS}
    hit_rates = {}
    for cache in ("denot", "mover.left", "mover.commutes"):
        hits = counts[f"{cache}.hit"]
        misses = counts[f"{cache}.miss"]
        total = hits + misses
        hit_rates[cache] = round(hits / total, 4) if total else None
    criterion_checks = sum(counts.values())
    # End-of-run packed-kernel gauges (intern tables, memo populations).
    packed_gauges = next(
        (dict(e.args) for e in reversed(tracer.events)
         if e.name == "packed.kernel"),
        {},
    )
    return {
        "counters": counts,
        "cache_hit_rates": hit_rates,
        "packed_gauges": packed_gauges,
        "criterion_checks": criterion_checks,
        "criterion_checks_per_sec": round(criterion_checks / elapsed, 1),
    }


def measure_memory(name: str) -> dict:
    """Tracemalloc peak of one untraced exploration, per 1k states.

    Allocation tracing slows the interpreter, so this run contributes
    nothing to the throughput figure; it exists to catch the packed
    kernel's memo layers silently regressing into memory hogs.
    """
    tracemalloc.start()
    try:
        report, _ = _explore_scope(name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "tracemalloc_peak_kib": round(peak / 1024, 1),
        "tracemalloc_peak_kib_per_1k_states": round(
            peak / 1024 / (report.states / 1000), 1
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help=f"CI smoke mode: explore only the {TINY_SCOPE!r} "
                             "scope (no speedup enforcement)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions; the best run counts")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH,
                        help="committed baseline JSON to compare against "
                             "(never written unless --refresh-baseline)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="results JSON path (default is gitignored under "
                             "benchmarks/out/ so runs never dirty the tree)")
    parser.add_argument("--refresh-baseline", action="store_true",
                        dest="refresh_baseline",
                        help="overwrite this scope's committed baseline with "
                             "this run's rate and verdict (the ratchet)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        dest="min_speedup", metavar="X",
                        help="fail unless states/sec ≥ X × the committed "
                             "baseline (0 = report only)")
    args = parser.parse_args(argv)

    scope = TINY_SCOPE if args.tiny else FULL_SCOPE
    current = measure_throughput(scope, args.repeat)
    current.update(measure_counters(scope))
    current.update(measure_memory(scope))

    failures = 0
    absent_pairs = [
        cache for cache, rate in current["cache_hit_rates"].items()
        if rate is None
    ]
    if absent_pairs:
        print(f"FAIL: cache counters absent for {absent_pairs} — the traced "
              "kernel emitted no hit/miss events", file=sys.stderr)
        failures += 1

    baseline_doc = {}
    if args.baseline.exists():
        baseline_doc = json.loads(args.baseline.read_text(encoding="utf-8"))
    baselines = baseline_doc.get("baselines", {})
    baseline = baselines.get(scope)

    speedup = None
    if baseline:
        speedup = round(
            current["states_per_sec"] / baseline["states_per_sec"], 2
        )
        current["speedup_vs_baseline"] = speedup
        expected = baseline.get("verdict")
        if expected and expected != current["verdict"]:
            print("FAIL: verdict differs from the baseline exploration "
                  f"(expected {expected}, got {current['verdict']})",
                  file=sys.stderr)
            failures += 1
        if args.min_speedup and speedup < args.min_speedup:
            print(f"FAIL: speedup {speedup}x < required "
                  f"{args.min_speedup}x", file=sys.stderr)
            failures += 1
    elif args.min_speedup:
        print(f"FAIL: no committed baseline for scope {scope!r} to enforce "
              "--min-speedup against", file=sys.stderr)
        failures += 1

    document = {
        "_comment": (
            "Current bench_kernel results — regenerated by every run, "
            f"never committed.  Frozen baselines live in {args.baseline.name}."
        ),
        "baseline_file": str(args.baseline),
        "current": current,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps(document, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )

    if args.refresh_baseline and not failures:
        baselines[scope] = {
            "states_per_sec": current["states_per_sec"],
            "verdict": current["verdict"],
        }
        baseline_doc["baselines"] = baselines
        # the committed file holds frozen baselines only — runs write
        # their results under benchmarks/out/, never here
        baseline_doc.pop("current", None)
        args.baseline.write_text(
            json.dumps(baseline_doc, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
        print(f"baseline for {scope!r} refreshed -> {args.baseline}")

    rates = ", ".join(
        f"{cache}={rate}" for cache, rate in current["cache_hit_rates"].items()
    )
    print(f"scope={scope} states/sec={current['states_per_sec']} "
          f"(best of {args.repeat}; baseline "
          f"{baseline['states_per_sec'] if baseline else 'n/a'}"
          f"{f', speedup {speedup}x' if speedup else ''})")
    print(f"criterion-checks/sec={current['criterion_checks_per_sec']} "
          f"hit-rates: {rates}")
    print(f"results -> {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
