"""Command-line driver: ``python -m repro <command>``.

Commands
--------

``compare``
    Run every TM algorithm on a chosen workload and print the comparison
    table (the §6 case studies as one screen of data).

``modelcheck``
    Exhaustively verify Theorem 5.17 on the built-in small scopes.

``evaluate``
    Regenerate the whole evaluation summary used by EXPERIMENTS.md: the
    E1–E7 qualitative rows plus E8's model-checking scopes.

``trace``
    Run one workload under one TM strategy with the tracer enabled and
    export the structured event stream (JSONL, Chrome ``trace_event`` or
    a summary table — see docs/OBSERVABILITY.md).

``chaos``
    Fault-injection nemesis suite: seeded fault plans injected into every
    TM strategy under the adversarial scheduler, each run gated on
    serializability/opacity conformance (see DESIGN.md "Faults &
    recovery").  Exits nonzero on any gate failure.

``fuzz``
    Coverage-guided differential fuzzing: the committed seed corpus (and
    ``--budget`` mutants of it) runs through every enabled TM strategy
    and a differential oracle whose reference is the atomic machine; the
    known-bug zoo and the criterion-coverage ratchet gate the run (see
    docs/FUZZING.md).  ``--replay ARTIFACT`` deterministically re-executes
    a recorded failure instead.  Exits nonzero on any real-strategy
    failure, zoo escape or coverage gap.

``report``
    Render the zero-dependency single-file HTML dashboard: one section
    per perf tier drawn from its committed baseline and gate rows, the
    coverage ratchet and (optionally) a recorded trace's flamegraph (see
    docs/OBSERVABILITY.md "Dashboards & perf gates").

``perf``
    Measure every benchmark tier and judge it against its committed
    ``benchmarks/BENCH_<tier>.json`` through the tier's declared gate
    rows.  Exits 0 when green, 2 on a regression, 1 on an operational
    error; ``--refresh-baseline`` is the only writer of the baselines.

``compare``/``modelcheck`` additionally accept ``--trace PATH`` to record
the same event stream while doing their normal job (``.json`` paths get
the Chrome format, everything else JSONL).  ``compare``, ``modelcheck``,
``chaos`` and ``fuzz`` all take ``--profile`` (deterministic rule-level
profiler table) and ``--flame PATH`` (collapsed stacks); ``compare``,
``modelcheck`` and ``chaos`` take ``--flight-dir DIR`` to arm the bounded
flight recorder, whose replayable JSONL dumps are emitted automatically
when a run fails (``chaos`` arms it by default, ``fuzz`` dumps into its
``--artifacts-dir``).

Each command imports the layers it runs when it runs; only what
:data:`SCOPES` is built from is imported with this module (DESIGN.md
"Cold start").
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core.language import call, choice, tx
from repro.specs import CounterSpec, KVMapSpec, MemorySpec


def _spec_for(workload: str):
    return {
        "readwrite": "memory",
        "map": "kvmap",
        "set": "set",
        "counter": "counter",
        "bank": "bank",
    }[workload]


def _export_trace(tracer, path: str) -> None:
    """Write ``tracer``'s events to ``path`` — Chrome ``trace_event`` JSON
    for ``.json`` paths, JSONL otherwise."""
    from repro.obs import write_chrome_trace, write_jsonl

    if path.endswith(".json"):
        count = write_chrome_trace(tracer, path)
        fmt = "chrome-trace"
    else:
        count = write_jsonl(tracer, path)
        fmt = "jsonl"
    print(f"trace: {count} events ({fmt}) -> {path}")


def _pick_tracer(args: argparse.Namespace):
    """The tracer a run command should use, from its observability flags:
    ``--trace``/``--profile``/``--flame`` need the full recording tracer,
    ``--flight-dir`` alone arms the bounded (near-free) flight recorder,
    and with none of them the run stays on the null tracer."""
    from repro.obs import NULL_TRACER, FlightRecorder, RecordingTracer

    if (
        getattr(args, "trace", None)
        or getattr(args, "profile", False)
        or getattr(args, "flame", None)
    ):
        return RecordingTracer()
    flight_dir = getattr(args, "flight_dir", None)
    if flight_dir:
        return FlightRecorder(auto_dump_dir=flight_dir)
    return NULL_TRACER


def _emit_profile(args: argparse.Namespace, tracer) -> None:
    """Print the top-table and/or write collapsed stacks when asked."""
    if not (getattr(args, "profile", False) or getattr(args, "flame", None)):
        return
    from repro.obs import Profile

    profile = Profile()
    profile.add_tracer(tracer)
    if getattr(args, "profile", False):
        print()
        print(profile.top_table())
    flame = getattr(args, "flame", None)
    if flame:
        count = profile.write_collapsed(flame)
        print(f"flamegraph: {count} collapsed stacks -> {flame}")


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.runtime import WorkloadConfig, make_scheduler, make_workload, run_experiment
    from repro.specs import get_spec
    from repro.tm import ALL_ALGORITHMS

    config = WorkloadConfig(
        transactions=args.transactions,
        ops_per_tx=args.ops,
        keys=args.keys,
        read_ratio=args.read_ratio,
        seed=args.seed,
    )
    programs = make_workload(args.workload, config)
    tracer = _pick_tracer(args)
    print(
        f"workload={args.workload} txns={config.transactions} "
        f"ops/tx={config.ops_per_tx} keys={config.keys} "
        f"reads={config.read_ratio} seed={config.seed}"
    )
    for name in sorted(ALL_ALGORITHMS):
        if name == "hybrid":
            continue  # needs a ProductSpec workload; see examples/
        algorithm = ALL_ALGORITHMS[name]()
        spec = get_spec(_spec_for(args.workload))
        result = run_experiment(
            algorithm, spec, programs, concurrency=args.concurrency,
            scheduler=make_scheduler(args.scheduler, args.seed),
            seed=args.seed, tracer=tracer,
        )
        print(result.summary_row())
    if tracer.enabled and getattr(args, "trace", None):
        _export_trace(tracer, args.trace)
    _emit_profile(args, tracer)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """One traced run: workload × strategy → event-stream export."""
    from repro.obs import RecordingTracer, summary_table, write_chrome_trace, write_jsonl
    from repro.runtime import (
        WorkloadConfig,
        make_scheduler,
        make_workload,
        run_experiment,
        summarize,
    )
    from repro.specs import get_spec
    from repro.tm import ALL_ALGORITHMS

    config = WorkloadConfig(
        transactions=args.transactions,
        ops_per_tx=args.ops,
        keys=args.keys,
        read_ratio=args.read_ratio,
        seed=args.seed,
    )
    programs = make_workload(args.workload, config)
    algorithm = ALL_ALGORITHMS[args.strategy]()
    spec = get_spec(_spec_for(args.workload))
    tracer = RecordingTracer()
    result = run_experiment(
        algorithm, spec, programs, concurrency=args.concurrency,
        scheduler=make_scheduler(args.scheduler, args.seed),
        seed=args.seed, verify=not args.no_verify, tracer=tracer,
    )
    print(result.summary_row())
    metrics = summarize(result.runtime.history, result.rule_counts)
    print(metrics.report())
    print()
    if args.fmt == "summary" or (args.fmt == "auto" and args.out is None):
        print(summary_table(tracer))
    if args.out is not None:
        if args.fmt == "chrome" or (args.fmt == "auto" and args.out.endswith(".json")):
            count = write_chrome_trace(tracer, args.out)
            print(f"trace: {count} events (chrome-trace) -> {args.out}")
        elif args.fmt == "summary":
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(summary_table(tracer) + "\n")
            print(f"trace: summary table -> {args.out}")
        else:
            count = write_jsonl(tracer, args.out)
            print(f"trace: {count} events (jsonl) -> {args.out}")
    return 0


SCOPES = {
    "mem-ww": (MemorySpec, [tx(call("write", "x", 1)), tx(call("write", "x", 2))]),
    "mem-wrw": (
        MemorySpec,
        [tx(call("write", "x", 1), call("read", "x")), tx(call("write", "x", 2))],
    ),
    "counter": (CounterSpec, [tx(call("inc"), call("get")), tx(call("inc"))]),
    "kvmap-branch": (
        KVMapSpec,
        [
            tx(call("put", "a", 1), choice(call("get", "a"), call("remove", "a"))),
            tx(call("put", "b", 2)),
        ],
    ),
    # Three identical programs: the showcase for the thread-permutation
    # symmetry quotient (>60× fewer states than the unreduced space).
    "counter-sym": (
        CounterSpec,
        [tx(call("inc")), tx(call("inc")), tx(call("inc"))],
    ),
}


def _print_scope_report(
    name: str, report, elapsed: float, baseline_states: Optional[int] = None
) -> int:
    verdict = "OK" if report.ok else "VIOLATION"
    reduction = ""
    if report.por and baseline_states:
        reduction = f"reduction={baseline_states / max(report.states, 1):.1f}x "
    print(
        f"{name:<14} states={report.states:<7} "
        f"transitions={report.transitions:<8} "
        f"finals={report.final_states:<3} "
        f"dedup={report.dedup_hits:<7} depth={report.max_depth:<4} "
        f"{reduction}{verdict} ({elapsed:.1f}s)"
    )
    if report.ok:
        return 0
    for violation in (
        report.invariant_violations
        + report.cover_violations
        + report.opacity_violations
    )[:3]:
        print("   !!", violation)
    return 1


def _por_baselines() -> dict:
    """POR-off state counts per scope from the committed ``BENCH_por.json``
    (for the reduction-ratio column), or ``{}`` when it is unreadable; read
    with ``json`` alone, so a model-checker run imports no perf tier."""
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_por.json"
    try:
        scopes = json.loads(path.read_text(encoding="utf-8")).get("scopes", {})
    except (OSError, ValueError):
        return {}
    return {
        name: row["off"]["states"] for name, row in scopes.items() if "off" in row
    }


def cmd_modelcheck(args: argparse.Namespace) -> int:
    from repro.checking import ExploreOptions, explore

    failures = 0
    por = getattr(args, "por", True)
    do_profile = getattr(args, "profile", False)
    tracer = _pick_tracer(args)
    baselines = _por_baselines() if por else {}
    profiles = []
    for name, (spec_cls, programs) in SCOPES.items():
        options = ExploreOptions(
            max_states=args.max_states,
            check_cmtpres=args.cmtpres,
            por=por,
            tracer=tracer,
            opacity_checker=getattr(args, "opacity_checker", None),
            # profiling wants the span-per-rule stream, not just the
            # periodic counters
            trace_rules=bool(
                tracer.enabled and (do_profile or getattr(args, "flame", None))
            ),
        )
        start = time.time()
        report = explore(spec_cls(), programs, options)
        failures += _print_scope_report(
            name, report, time.time() - start, baselines.get(name)
        )
        if report.flight_dump:
            print(f"   flight dump -> {report.flight_dump}")
        if do_profile:
            from repro.obs.profiling import logical_profile

            profiles.append((name, logical_profile(report)))
    if getattr(args, "opacity_checker", None):
        from repro.checking.tms2 import tms2_stats_snapshot

        counters = tms2_stats_snapshot()
        print(
            "opacity: "
            + " ".join(f"{key}={value}" for key, value in sorted(counters.items()))
        )
    if tracer.enabled and getattr(args, "trace", None):
        _export_trace(tracer, args.trace)
    if do_profile:
        from repro.obs.profiling import profile_report_table

        print()
        print(profile_report_table(profiles))
    _emit_profile(args, tracer)
    return 1 if failures else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Conformance-gated chaos suite: strategies × seeded fault plans under
    the nemesis scheduler.  Exit status 1 on any gate failure."""
    import json

    from repro.faults.conformance import chaos_setup, run_chaos, run_suite, shrink_plan
    from repro.obs import Profile
    from repro.runtime import WorkloadConfig
    from repro.tm import ALL_ALGORITHMS

    if getattr(args, "durable", False):
        from repro.durable.chaos import run_durable_chaos

        report = run_durable_chaos(seed=args.seed, tiny=args.tiny)
        print(report.render())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            print(f"report -> {args.out}")
        return 0 if report.ok else 1

    strategies = sorted(ALL_ALGORITHMS) if args.strategy == "all" else [args.strategy]
    plans = args.plans
    transactions, ops, keys = args.transactions, args.ops, args.keys
    if args.tiny:
        plans = min(plans, 2)
        transactions = min(transactions, 4)
        ops = min(ops, 3)
    config = WorkloadConfig(
        transactions=transactions,
        ops_per_tx=ops,
        keys=keys,
        read_ratio=args.read_ratio,
        seed=args.seed,
    )
    print(
        f"chaos: {len(strategies)} strategies x {plans} plans "
        f"({args.events} events each), scheduler={args.scheduler}, "
        f"workload={args.workload}, txns={transactions}, seed={args.seed}"
    )
    profile = (
        Profile()
        if getattr(args, "profile", False) or getattr(args, "flame", None)
        else None
    )
    report = run_suite(
        strategies,
        config,
        plans_per_strategy=plans,
        base_seed=args.seed,
        events_per_plan=args.events,
        scheduler=args.scheduler,
        workload=args.workload,
        max_retries=args.max_retries,
        flight_dir=getattr(args, "flight_dir", None),
        profile=profile,
    )
    for name, row in report.strategies.items():
        gate = "ok" if row["gate_failures"] == 0 else f"FAIL x{row['gate_failures']}"
        print(
            f"{name:<12} plans={row['plans']:<3} commits={row['commits']:<4} "
            f"aborts={row['aborts']:<5} injected={row['injected']:<4} "
            f"escalations={row['recovery'].get('recovery.escalation', 0):<3} "
            f"gate={gate}"
        )
    print(
        f"total: {report.total_plans} plans, {report.total_injected} injections, "
        f"{len(report.failures)} gate failures, {report.elapsed_sec:.1f}s"
    )
    for failure in report.failures:
        print(f"\nFAIL {failure.algorithm} seed={failure.seed}")
        print(f"  plan: {failure.plan.describe()}")
        for item in failure.failures:
            print(f"  {item}")
        if failure.flight_dump:
            print(f"  flight dump -> {failure.flight_dump}")
        if args.shrink:
            def failing(candidate, _strategy=failure.algorithm, _seed=failure.seed):
                # Same derivation as run_suite: the workload seed is the
                # plan seed, so the witness rebuilds from the failure alone.
                from dataclasses import replace

                algo, spec, progs = chaos_setup(
                    _strategy, replace(config, seed=_seed), args.workload
                )
                return not run_chaos(
                    algo, spec, progs, candidate, seed=_seed,
                    scheduler=args.scheduler, max_retries=args.max_retries,
                ).ok

            minimal = shrink_plan(failure.plan, failing)
            print(
                f"  shrunk: {len(failure.plan.events)} -> "
                f"{len(minimal.events)} events: {minimal.describe()}"
            )
    if profile is not None:
        if getattr(args, "profile", False):
            print()
            print(profile.top_table())
        flame = getattr(args, "flame", None)
        if flame:
            count = profile.write_collapsed(flame)
            print(f"flamegraph: {count} collapsed stacks -> {flame}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report -> {args.out}")
    return 0 if report.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Coverage-guided differential fuzzing (or artifact replay).  Exit
    status 1 on real-strategy failures, zoo escapes or coverage gaps."""
    import json
    import os

    from repro.fuzz.engine import Fuzzer
    from repro.obs import Profile

    def _ensure_parent(path: str) -> str:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return path

    if args.replay:
        from repro.fuzz.artifacts import replay_artifact

        result = replay_artifact(args.replay, max_retries=args.max_retries)
        verdict = "REPRODUCED" if result.reproduced else "DID NOT REPRODUCE"
        print(f"{verdict}: {args.replay}")
        print(f"  strategy: {result.strategy}")
        print(f"  checks:   expected {result.expected_checks}, "
              f"got {result.actual_checks}")
        print(f"  verdict fingerprint: expected {result.expected_fingerprint}, "
              f"got {result.actual_fingerprint}")
        if result.shrunk_reproduced is not None:
            print(f"  shrunk witness reproduced: {result.shrunk_reproduced}")
        return 0 if result.reproduced else 1

    budget = args.budget
    if args.tiny:
        budget = min(budget, 5)
    strategies = None if args.strategy == "all" else [args.strategy]
    profile = (
        Profile()
        if getattr(args, "profile", False) or getattr(args, "flame", None)
        else None
    )
    fuzzer = Fuzzer(
        args.corpus_dir,
        strategies=strategies,
        seed=args.seed,
        max_retries=args.max_retries,
        artifacts_dir=args.artifacts_dir,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        profile=profile,
    )
    print(
        f"fuzz: corpus={args.corpus_dir} budget={budget} seed={args.seed} "
        f"jobs={args.jobs} strategies="
        f"{args.strategy if args.strategy != 'all' else len(fuzzer.strategies)}"
    )
    started = time.monotonic()
    report = fuzzer.fuzz(budget)
    elapsed = time.monotonic() - started
    for strategy, points in sorted(report.coverage.by_strategy().items()):
        print(f"  {strategy:<22} {points:>4} coverage points")
    print(
        f"total: {report.executions} runs, {len(report.coverage)} coverage "
        f"points, {len(report.admitted)} mutants admitted, {elapsed:.1f}s"
    )
    for failure in report.failures:
        print(f"\nFAIL {failure['strategy']} on {failure['entry']}: "
              f"{failure['checks']}")
        for check, detail in failure["failures"]:
            print(f"  {check}: {detail}")
    for path in report.artifacts:
        print(f"artifact -> {path}")
    for path in report.flight_dumps:
        print(f"flight dump -> {path}")
    for name, checks in sorted(report.zoo_caught.items()):
        verdict = f"caught via {checks}" if checks else "ESCAPED"
        print(f"zoo {name:<22} {verdict}")
    if report.coverage_gaps:
        print(f"\nCOVERAGE GAPS ({len(report.coverage_gaps)} expected points "
              "never exercised):")
        for gap in report.coverage_gaps:
            print(f"  {gap}")
    if args.coverage_out:
        report.coverage.write(_ensure_parent(args.coverage_out))
        print(f"coverage map -> {args.coverage_out}")
    if args.coverage_trace:
        from repro.obs import write_jsonl

        write_jsonl(report.coverage.to_events(),
                    _ensure_parent(args.coverage_trace))
        print(f"coverage events -> {args.coverage_trace}")
    if profile is not None:
        if getattr(args, "profile", False):
            print()
            print(profile.top_table())
        flame = getattr(args, "flame", None)
        if flame:
            count = profile.write_collapsed(flame)
            print(f"flamegraph: {count} collapsed stacks -> {flame}")
    if args.out:
        with open(_ensure_parent(args.out), "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report -> {args.out}")
    return 0 if report.ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Render the self-contained HTML dashboard."""
    from repro.obs.report import build_report

    path = build_report(
        args.out,
        trace_path=getattr(args, "trace", None),
        title=args.title,
    )
    print(f"dashboard -> {path}")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """Measure and judge the benchmark tiers: 0 green, 2 regression, 1
    operational error (missing/unreadable baseline, unknown tier)."""
    import json

    from repro.obs.perf import BENCH_DIR, TIERS, BaselineError, run_perf

    try:
        report = run_perf(
            tiers=args.tiers or tuple(TIERS),
            tiny=args.tiny,
            refresh=args.refresh_baseline,
            baselines=args.baselines or BENCH_DIR,
            seed=args.seed,
        )
    except BaselineError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"json -> {args.json}")
    return 0 if report.ok else 2


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sharded transactional daemon until interrupted (see
    DESIGN.md "Service layer")."""
    import asyncio

    from repro.durable.store import StoreLockedError
    from repro.serve.daemon import DaemonConfig, run_daemon

    config = DaemonConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        strategy=args.strategy,
        scheduler=args.scheduler,
        seed=args.seed,
        mode=args.mode,
        batch=args.batch,
        inbox=args.inbox,
        conformance_window=args.conformance_window,
        flight_dir=getattr(args, "flight_dir", None),
        durable=getattr(args, "durable", None),
    )

    def ready(daemon) -> None:
        durable = f" durable={config.durable}" if config.durable else ""
        print(
            f"serve: listening on {config.host}:{daemon.port} "
            f"shards={config.shards} strategy={config.strategy} "
            f"mode={config.mode} scheduler={config.scheduler} "
            f"seed={config.seed}{durable}",
            flush=True,
        )

    try:
        asyncio.run(run_daemon(config, ready))
    except StoreLockedError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down")
    return 0


def cmd_log(args: argparse.Namespace) -> int:
    """Read-only inspection of a durable segment directory: 0 = clean
    (torn tails are clean — recovery truncates them), 2 = refusal-grade
    corruption a recovery would reject."""
    import json

    from repro.durable.inspect import inspect_directory, render_inspection

    report = inspect_directory(args.directory)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_inspection(report))
    return 0 if report["ok"] else 2


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a closed/open-loop load run against a live daemon and print
    (optionally write) the throughput/latency report."""
    import json

    from repro.serve.loadgen import LoadConfig, run_load_sync

    requests, sessions, max_inflight = args.requests, args.sessions, args.max_inflight
    if args.tiny:
        requests = min(requests, 200)
        sessions = min(sessions, 50)
        max_inflight = min(max_inflight, 16)
    config = LoadConfig(
        host=args.host,
        port=args.port,
        mode=args.mode,
        sessions=sessions,
        requests=requests,
        rate=args.rate,
        workload=args.workload,
        keys=args.keys,
        ops_per_txn=args.ops,
        read_ratio=args.read_ratio,
        cross_ratio=args.cross_ratio,
        seed=args.seed,
        pool=args.pool,
        max_inflight=max_inflight,
    )
    try:
        report = run_load_sync(config)
    except (ConnectionError, OSError) as exc:
        print(f"loadgen: daemon unreachable at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    row = report.to_dict()
    print(
        f"loadgen: {row['mode']}/{row['workload']} {row['requests']} txns in "
        f"{row['elapsed_s']}s = {row['rps']} req/s  "
        f"p50={row['p50_ms']}ms p99={row['p99_ms']}ms "
        f"aborts={row['abort_rate']:.2%} throttled={row['throttled']}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(row, handle, indent=2, sort_keys=True)
        print(f"report -> {args.out}")
    return 0


def _assert_rpc(args: argparse.Namespace, method: str, **params):
    """Daemon RPC for the ``assert-*`` subcommands — the rdc-cli pattern:
    an unreachable daemon or transport error is exit 2 (gate failure),
    never a traceback."""
    from repro.serve.client import call_daemon

    try:
        return call_daemon(method, host=args.host, port=args.port, **params)
    except (ConnectionError, OSError) as exc:
        print(
            f"assert: daemon unreachable at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def _probe_report(args: argparse.Namespace) -> dict:
    """The measurement an assert gate judges: a previously written
    ``repro loadgen --out`` report when ``--report`` names one, else a
    fresh closed-loop probe against the live daemon."""
    import json

    from repro.serve.loadgen import LoadConfig, run_load_sync

    if args.report:
        with open(args.report, "r", encoding="utf-8") as handle:
            return json.load(handle)
    # Probe reachability first so a down daemon is exit 2, not a hang.
    _assert_rpc(args, "ping")
    config = LoadConfig(
        host=args.host,
        port=args.port,
        mode="closed",
        requests=args.requests,
        workload=args.workload,
        max_inflight=32,
        pool=2,
        seed=args.seed,
    )
    return run_load_sync(config).to_dict()


def cmd_assert_throughput(args: argparse.Namespace) -> int:
    """Gate: measured req/s >= --min-rps (exit 2 on breach)."""
    row = _probe_report(args)
    rps = float(row.get("rps", 0.0))
    if rps < args.min_rps:
        print(f"assert-throughput: FAIL {rps} req/s < floor {args.min_rps}")
        return 2
    print(f"assert-throughput: ok {rps} req/s >= floor {args.min_rps}")
    return 0


def cmd_assert_latency(args: argparse.Namespace) -> int:
    """Gate: measured p99 <= --max-p99-ms (exit 2 on breach)."""
    row = _probe_report(args)
    p99 = float(row.get("p99_ms", float("inf")))
    if p99 > args.max_p99_ms:
        print(f"assert-latency: FAIL p99 {p99}ms > ceiling {args.max_p99_ms}ms")
        return 2
    print(f"assert-latency: ok p99 {p99}ms <= ceiling {args.max_p99_ms}ms")
    return 0


def cmd_assert_conformance(args: argparse.Namespace) -> int:
    """Gate: every shard's committed history passes the conformance gate
    (exit 2 on any failure, including sticky earlier-window failures)."""
    reply = _assert_rpc(args, "conformance")
    shards = reply.get("shards", [])
    gated = sum(s.get("window_commits", 0) for s in shards)
    if not reply.get("ok"):
        print(f"assert-conformance: FAIL ({len(shards)} shards)")
        for shard in shards:
            for failure in shard.get("failures", []) or shard.get("sticky_failures", []):
                print(f"  shard {shard.get('shard')}: {failure}")
        return 2
    print(
        f"assert-conformance: ok — {len(shards)} shards, "
        f"{gated} commits in current windows, "
        f"{sum(s.get('commits_gated', 0) for s in shards)} gated total"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    print("== E2/E3 style comparison (readwrite, memory) ==")
    compare_args = argparse.Namespace(
        workload="readwrite", transactions=40, ops=4, keys=8,
        read_ratio=0.6, seed=99, concurrency=4, scheduler="random",
    )
    cmd_compare(compare_args)
    print()
    print("== E1 style comparison (map, kvmap) ==")
    compare_args.workload = "map"
    compare_args.read_ratio = 0.5
    cmd_compare(compare_args)
    print()
    print("== E8: Theorem 5.17 small scopes ==")
    return cmd_modelcheck(argparse.Namespace(max_states=400_000, cmtpres=False))


def _add_obs_flags(
    command: argparse.ArgumentParser, flight_default: Optional[str] = None
) -> None:
    """The shared observability trio (`--profile`, `--flame`,
    ``--flight-dir``) every run command carries."""
    command.add_argument("--profile", action="store_true",
                         help="print the deterministic profiler's top-N "
                              "self-time table after the run")
    command.add_argument("--flame", metavar="PATH",
                         help="write collapsed stacks (speedscope/flamegraph "
                              "format) to PATH")
    command.add_argument("--flight-dir", metavar="DIR", dest="flight_dir",
                         default=flight_default,
                         help="arm the bounded flight recorder; failing runs "
                              "auto-dump their event tail as replayable JSONL "
                              "into DIR"
                              + (f" (default: {flight_default})"
                                 if flight_default else ""))


def build_parser() -> argparse.ArgumentParser:
    from repro.tm import ALL_ALGORITHMS  # its keys cost no strategy import

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Push/Pull transactions (PLDI 2015) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="algorithm comparison table")
    compare.add_argument("--workload", default="readwrite",
                         choices=["readwrite", "map", "set", "counter", "bank"])
    compare.add_argument("--transactions", type=int, default=40)
    compare.add_argument("--ops", type=int, default=4)
    compare.add_argument("--keys", type=int, default=8)
    compare.add_argument("--read-ratio", type=float, default=0.6,
                         dest="read_ratio")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--concurrency", type=int, default=4)
    compare.add_argument("--scheduler", default="random",
                         choices=["random", "roundrobin", "nemesis"],
                         help="interleaving policy (one factory everywhere: "
                              "--seed means the same schedule in every "
                              "command)")
    compare.add_argument("--trace", metavar="PATH",
                         help="record a trace of every run to PATH "
                              "(.json = Chrome trace, else JSONL)")
    _add_obs_flags(compare)
    compare.set_defaults(func=cmd_compare)

    modelcheck = sub.add_parser("modelcheck", help="verify Theorem 5.17")
    modelcheck.add_argument("--max-states", type=int, default=400_000,
                            dest="max_states")
    modelcheck.add_argument("--cmtpres", action="store_true")
    modelcheck.add_argument("--por", action=argparse.BooleanOptionalAction,
                            default=True,
                            help="mover-guided partial-order reduction "
                                 "(default on; --no-por explores the full "
                                 "state space)")
    modelcheck.add_argument("--trace", metavar="PATH",
                            help="record exploration stats to PATH "
                                 "(.json = Chrome trace, else JSONL)")
    modelcheck.add_argument("--opacity-checker", dest="opacity_checker",
                            default=None, choices=["tms2"],
                            help="judge every terminal history with the "
                                 "TMS2 opacity decision (a rejection "
                                 "fails the scope and dumps the flight "
                                 "recorder)")
    _add_obs_flags(modelcheck)
    modelcheck.set_defaults(func=cmd_modelcheck)

    trace = sub.add_parser(
        "trace", help="run one workload with the tracer on and export events"
    )
    trace.add_argument("workload",
                       choices=["readwrite", "map", "set", "counter", "bank"])
    trace.add_argument("--strategy", default="tl2",
                       choices=sorted(ALL_ALGORITHMS))
    trace.add_argument("--out", metavar="PATH",
                       help="export path (default: print summary table only)")
    trace.add_argument("--format", dest="fmt", default="auto",
                       choices=["auto", "jsonl", "chrome", "summary"])
    trace.add_argument("--transactions", type=int, default=40)
    trace.add_argument("--ops", type=int, default=4)
    trace.add_argument("--keys", type=int, default=8)
    trace.add_argument("--read-ratio", type=float, default=0.6,
                       dest="read_ratio")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--concurrency", type=int, default=4)
    trace.add_argument("--scheduler", default="random",
                       choices=["random", "roundrobin", "nemesis"])
    trace.add_argument("--no-verify", action="store_true", dest="no_verify",
                       help="skip the serializability check (lets the "
                            "runtime compact its log)")
    trace.set_defaults(func=cmd_trace)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection nemesis suite with the conformance gate",
    )
    chaos.add_argument("--strategy", default="all",
                       choices=["all"] + sorted(ALL_ALGORITHMS))
    chaos.add_argument("--workload", default="readwrite",
                       choices=["readwrite", "map", "set", "counter", "bank"])
    chaos.add_argument("--transactions", type=int, default=5,
                       help="small by default so the gate's serializability "
                            "and opacity searches stay exhaustive")
    chaos.add_argument("--ops", type=int, default=3)
    chaos.add_argument("--keys", type=int, default=4,
                       help="few keys = high contention for the nemesis")
    chaos.add_argument("--read-ratio", type=float, default=0.5,
                       dest="read_ratio")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed; every plan seed derives from it and "
                            "any failure reproduces from its printed seed")
    chaos.add_argument("--plans", type=int, default=20,
                       help="fault plans per strategy")
    chaos.add_argument("--events", type=int, default=4,
                       help="fault events per plan")
    chaos.add_argument("--scheduler", default="nemesis",
                       choices=["random", "roundrobin", "nemesis"])
    chaos.add_argument("--max-retries", type=int, default=12,
                       dest="max_retries")
    chaos.add_argument("--tiny", action="store_true",
                       help="CI smoke mode: 2 plans/strategy, small workload")
    chaos.add_argument("--shrink", action="store_true",
                       help="delta-debug each failing plan to a minimal "
                            "witness")
    chaos.add_argument("--durable", action="store_true",
                       help="run the durability chaos suite instead: "
                            "kill/corrupt/recover rounds against durable "
                            "shards (repro.durable.chaos)")
    chaos.add_argument("--out", metavar="PATH",
                       help="write the JSON suite report to PATH")
    _add_obs_flags(chaos, flight_default="flight-recordings")
    chaos.set_defaults(func=cmd_chaos)

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided differential fuzzing (docs/FUZZING.md)",
    )
    fuzz.add_argument("--budget", type=int, default=25,
                      help="mutants to evaluate after the corpus baseline")
    fuzz.add_argument("--tiny", action="store_true",
                      help="CI smoke mode: clamp the budget to 5 mutants")
    fuzz.add_argument("--replay", metavar="ARTIFACT",
                      help="re-execute a failure artifact instead of fuzzing")
    fuzz.add_argument("--corpus-dir", default="tests/corpus",
                      help="seed corpus directory (default: tests/corpus)")
    fuzz.add_argument("--artifacts-dir", default="fuzz-artifacts",
                      help="where failure artifacts are written")
    fuzz.add_argument("--strategy", default="all",
                      help="fuzz a single strategy instead of all enabled")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="session seed (mutation + schedules)")
    fuzz.add_argument("--jobs", type=int, default=1,
                      help="parallel oracle workers (results are identical "
                           "for any value)")
    fuzz.add_argument("--max-retries", type=int, default=20,
                      help="per-transaction retry budget in the oracle")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip ddmin minimisation of failures")
    fuzz.add_argument("--coverage-out", metavar="PATH",
                      help="write the final coverage map as JSON")
    fuzz.add_argument("--coverage-trace", metavar="PATH",
                      help="export coverage counters as obs-layer JSONL")
    fuzz.add_argument("--out", metavar="PATH",
                      help="write the full fuzz report as JSON")
    fuzz.add_argument("--profile", action="store_true",
                      help="in-process profiled sweep; print the top-N "
                           "self-time table (ignores --jobs)")
    fuzz.add_argument("--flame", metavar="PATH",
                      help="write collapsed stacks to PATH (implies an "
                           "in-process profiled sweep)")
    fuzz.set_defaults(func=cmd_fuzz)

    report = sub.add_parser(
        "report",
        help="render the self-contained HTML dashboard (docs/OBSERVABILITY.md)",
    )
    report.add_argument("--out", default="report.html",
                        help="output HTML path (default: report.html)")
    report.add_argument("--trace", metavar="PATH",
                        help="JSONL event log to render as a flamegraph "
                             "section")
    report.add_argument("--title", default="repro dashboard")
    report.set_defaults(func=cmd_report)

    perf = sub.add_parser(
        "perf",
        help="measure every benchmark tier and judge it against its "
             "committed BENCH baseline (exit 2 on regression)",
    )
    perf.add_argument("--tiny", action="store_true",
                      help="CI mode: measure a subset of each tier's paths")
    perf.add_argument("--tier", action="append", dest="tiers",
                      help="run only this tier (repeatable; default: all of "
                           "kernel, por, faults, packed, serve, durable, "
                           "opacity, startup)")
    perf.add_argument("--seed", type=int, default=0,
                      help="root seed for the seeded tiers")
    perf.add_argument("--baselines", metavar="DIR", default=None,
                      help="directory of BENCH_<tier>.json baselines "
                           "(default: benchmarks/)")
    perf.add_argument("--refresh-baseline", action="store_true",
                      dest="refresh_baseline",
                      help="rewrite each tier's baseline whose absolute-bound "
                           "rows pass (refuses --tiny)")
    perf.add_argument("--json", metavar="PATH",
                      help="also write the findings as JSON")
    perf.set_defaults(func=cmd_perf)

    serve = sub.add_parser(
        "serve",
        help="sharded transactional daemon over the push/pull kernel "
             "(DESIGN.md 'Service layer')",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7411,
                       help="TCP port (0 = pick a free port, printed on "
                            "startup)")
    serve.add_argument("--shards", type=int, default=2,
                       help="independent push/pull runtimes keys are hashed "
                            "across")
    serve.add_argument("--strategy", default="encounter",
                       choices=sorted(ALL_ALGORITHMS))
    serve.add_argument("--scheduler", default="random",
                       choices=["random", "roundrobin", "nemesis"])
    serve.add_argument("--seed", type=int, default=0,
                       help="root seed; every per-shard scheduler and the "
                            "2PC commit order derive from it")
    serve.add_argument("--mode", default="inline",
                       choices=["inline", "process"],
                       help="inline = shards on the daemon loop "
                            "(deterministic, tests); process = one forked "
                            "worker per shard")
    serve.add_argument("--batch", type=int, default=32,
                       help="max transactions per shard wave")
    serve.add_argument("--inbox", type=int, default=256,
                       help="bounded per-shard inbox depth (the backpressure "
                            "point)")
    serve.add_argument("--conformance-window", type=int, default=64,
                       dest="conformance_window",
                       help="commits per shard between durable snapshots "
                            "(the conformance gate and the verified log "
                            "rollover run at every quiescent wave)")
    serve.add_argument("--durable", metavar="DIR", default=None,
                       help="persist committed records to per-shard segment "
                            "stores under DIR; a restart recovers and "
                            "re-verifies them (exit 2 if DIR is locked by "
                            "another daemon)")
    _add_obs_flags(serve)
    serve.set_defaults(func=cmd_serve)

    log = sub.add_parser(
        "log",
        help="inspect a durable segment directory: record counts, "
             "watermarks, CRC verification, snapshot info (exit 2 on "
             "refusal-grade corruption)",
    )
    log.add_argument("directory", help="segment directory (a shard's "
                                       "--durable subdirectory, or coord)")
    log.add_argument("--json", action="store_true",
                     help="machine-readable report instead of the summary")
    log.set_defaults(func=cmd_log)

    loadgen = sub.add_parser(
        "loadgen",
        help="closed/open-loop load generator against a running daemon",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7411)
    loadgen.add_argument("--mode", default="closed", choices=["closed", "open"])
    loadgen.add_argument("--sessions", type=int, default=100,
                         help="logical sessions (workload cursors)")
    loadgen.add_argument("--requests", type=int, default=1000,
                         help="total transactions to issue")
    loadgen.add_argument("--rate", type=float, default=500.0,
                         help="open-loop arrival rate, req/s")
    loadgen.add_argument("--workload", default="kvmap",
                         choices=["kvmap", "bank", "counter", "mixed"])
    loadgen.add_argument("--keys", type=int, default=128,
                         help="distinct keys per keyed space")
    loadgen.add_argument("--ops", type=int, default=2,
                         help="operations per transaction")
    loadgen.add_argument("--read-ratio", type=float, default=0.5,
                         dest="read_ratio")
    loadgen.add_argument("--cross-ratio", type=float, default=0.0,
                         dest="cross_ratio",
                         help="fraction of transactions deliberately "
                              "spanning two shards (2PC)")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--pool", type=int, default=4,
                         help="TCP connections in the client pool")
    loadgen.add_argument("--max-inflight", type=int, default=64,
                         dest="max_inflight",
                         help="in-flight bound (closed-loop concurrency / "
                              "open-loop cap)")
    loadgen.add_argument("--tiny", action="store_true",
                         help="CI smoke mode: clamp requests/sessions")
    loadgen.add_argument("--out", metavar="PATH",
                         help="write the JSON report to PATH (feeds "
                              "repro assert-* --report)")
    loadgen.set_defaults(func=cmd_loadgen)

    def _assert_common(command: argparse.ArgumentParser,
                       probe: bool = True) -> None:
        command.add_argument("--host", default="127.0.0.1")
        command.add_argument("--port", type=int, default=7411)
        if probe:
            command.add_argument("--report", metavar="PATH", default=None,
                                 help="judge a repro loadgen --out report "
                                      "instead of probing the daemon")
            command.add_argument("--requests", type=int, default=200,
                                 help="probe size when no --report is given")
            command.add_argument("--workload", default="kvmap",
                                 choices=["kvmap", "bank", "counter", "mixed"])
            command.add_argument("--seed", type=int, default=0)

    assert_tp = sub.add_parser(
        "assert-throughput",
        help="CI gate: measured req/s >= floor, exit 2 on breach",
    )
    _assert_common(assert_tp)
    assert_tp.add_argument("--min-rps", type=float, required=True,
                           dest="min_rps", help="req/s floor")
    assert_tp.set_defaults(func=cmd_assert_throughput)

    assert_lat = sub.add_parser(
        "assert-latency",
        help="CI gate: measured p99 <= ceiling, exit 2 on breach",
    )
    _assert_common(assert_lat)
    assert_lat.add_argument("--max-p99-ms", type=float, required=True,
                            dest="max_p99_ms", help="p99 latency ceiling, ms")
    assert_lat.set_defaults(func=cmd_assert_latency)

    assert_conf = sub.add_parser(
        "assert-conformance",
        help="CI gate: every shard's committed history passes the "
             "conformance gate, exit 2 on any failure",
    )
    _assert_common(assert_conf, probe=False)
    assert_conf.set_defaults(func=cmd_assert_conformance)

    evaluate = sub.add_parser("evaluate", help="regenerate the evaluation")
    evaluate.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
