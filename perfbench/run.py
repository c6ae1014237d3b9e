"""The repository's benchmark: ``repro serve`` under a durable open loop,
and the model checker's scope sweep.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kv-durable-open --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload twice for half the seconds each, untraced and then with the span
wrappers installed, and reports the per-layer metrics plus the tracing
overhead and coverage.
Every timing is reported at the box's nominal speed: it is scaled by a
reference timing of the same kind taken beside it (``speed.py``), and the
raw figures are printed beside it.
Every run checks the program's outputs; a failed check prints the reason
and exits 1 with ``"correct": false`` and no metrics.  The last line of
standard output is the result as one JSON object.  ``METRICS.md`` says
what each workload and metric is.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import gen, layers, load, procs, speed, stats, tracing  # noqa: E402
from perfbench.procs import RunFailed  # noqa: E402

WORKLOADS = ("kv-durable-open", "mc-sweep")
#: end-to-end metric -> unit (per-workload meaning: METRICS.md)
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_unit": "ms",
    "rss_peak_mib": "MiB",
    "recovery_s": "s",
}
HOST = "127.0.0.1"
#: TCP connections the load generator spreads its requests over
CONNECTIONS = 2
#: requests per second, about a sixth of what the durable mixed traffic
#: sustains on a 2-core x86 box (~300/s).  The box has spells in which the
#: daemon gets much less of a core; at 100/s such a spell queued requests
#: and tripled the p50 of a whole run, so the load stays low enough that a
#: spell shows in the daemon's service time rather than in a queue
OPEN_RATE = 50.0
WARMUP_S = 1.0
#: SIGKILL-and-restart cycles per run; recovery_s is the median of their
#: restarts.  Each cycle of an untraced run also times one daemon launch
#: on an empty directory, so that setup_s, the median of these and the
#: first launch, samples the whole run rather than its first seconds
RESTARTS = 7
#: SIGKILL-and-restart pairs per cycle: the second restart recovers the
#: log the first one replayed, plus its read-backs
KILLS = 2
#: seconds of traffic between restart cycles, so that every restart has a
#: log tail to replay
BURST_S = 0.5
#: mc-sweep: the share of the sweeping time each POR mode gets.  POR off
#: feeds two of the metrics and POR on one, and a POR-off sweep takes
#: about 7 times as long, so a 40 s run holds ~5 POR-off and ~13 POR-on
MC_SHARE = {"off": 3.0, "on": 1.0}
#: whole-run limit; children are killed and reaped when it fires
DEADLINE_S = 170
READY_DAEMON = "serve: listening on"
READY_EXPLORER = "explorer: ready"


@dataclass
class Phase:
    """One measured pass over a workload (untraced or traced)."""

    e2e: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    layers: Dict[str, layers.Metric] = field(default_factory=dict)
    #: traced runs: seconds of self time per span name, and the CPU seconds
    #: of the process they were recorded in
    self_time: Dict[str, float] = field(default_factory=dict)
    traced_cpu_s: float = 0.0


class Run:
    """The state shared by one invocation: seed, time, workdir, children."""

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.abspath("src"), os.path.dirname(HERE)])
        env.pop("PYTHONSTARTUP", None)
        self.children = procs.Children(workdir, env)
        self._dirs = itertools.count()

    def fresh_dir(self) -> str:
        path = os.path.join(self.workdir, f"durable-{next(self._dirs)}")
        os.makedirs(path)
        return path

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


# -- kv-durable-open -----------------------------------------------------------------


def session(port: int, body, connections: int = 1):
    """Run ``await body(wire)`` over a fresh connection pool to ``port``."""

    async def go():
        wire = await load.Wire().open(HOST, port, connections)
        try:
            return await body(wire)
        finally:
            await wire.close()

    return asyncio.run(go())


def serve_phase(run: Run, traced: bool) -> Phase:
    spans_files: List[str] = []

    def launch(directory: str) -> procs.Child:
        serve = ["--port", "0", "--seed", str(run.seed), "--durable", directory]
        argv = [sys.executable, "-m", "repro", "serve", *serve]
        if traced:
            spans_files.append(run.path(f"daemon-spans-{len(spans_files)}.json"))
            argv = [sys.executable, os.path.join(HERE, "traced_daemon.py"), spans_files[-1], "--", *serve]
        return run.children.launch("daemon", argv, READY_DAEMON)

    def time_setup() -> None:
        # a throwaway daemon on an empty directory, beside the measured one
        if not traced:
            reference = reference_launch(run)
            child = launch(run.fresh_dir())
            setups.append((child.startup_s, reference))
            run.children.kill(child)

    directory = run.fresh_dir()
    reference = reference_launch(run)
    daemon = launch(directory)
    setups = [(daemon.startup_s, reference)]

    traffic = gen.Traffic(run.seed)
    checker = gen.ReplyChecker()
    sent = {False: 0, True: 0}

    def source() -> List[List[Any]]:
        ops, cross = traffic.next_txn()
        checker.sent(ops)
        sent[cross] += 1
        return ops

    def mark():
        return time.perf_counter(), procs.cpu_s(daemon.pid)

    # reference work on the daemon's CPU, in the window's idle gaps: the
    # speed of that CPU while the daemon served the window
    work: List[Tuple[float, float]] = []

    def idle() -> None:
        with procs.on_program_cpu():
            work.append(speed.work())

    async def drive(wire):
        result = await load.open_loop(
            wire, source, checker.check, OPEN_RATE, WARMUP_S, run.seconds, mark, idle
        )
        counters = (await load.admin(wire, "metrics")).get("metrics", {})
        return result, counters, await load.admin(wire, "conformance")

    result, counters, verdict = session(daemon.port(), drive, CONNECTIONS)
    rss_mib = procs.peak_rss_mib(daemon.pid)
    for cross, counter in ((False, "serve.requests.single"), (True, "serve.requests.cross")):
        seen = int(counters.get(counter, {}).get("value", 0))
        if seen != sent[cross]:
            raise RunFailed(
                f"daemon counted {seen} {counter} requests, the generator sent {sent[cross]}: "
                "its key placement no longer matches the generator's"
            )
    check_conformance(verdict, "after the load")
    if result.committed == 0:
        raise RunFailed("no transaction committed in the measured window")
    if not work:
        raise RunFailed("the window left no idle gap for the reference work")

    # SIGKILL and restart on the same directory, KILLS times in each of
    # RESTARTS cycles; the daemon must answer every read-back as it did
    # before the cycle's first kill
    recoveries: List[Tuple[float, float]] = []
    read_backs = 0
    for cycle in range(RESTARTS):
        time_setup()

        async def burst_and_read(wire, cycle=cycle):
            if cycle:
                await load.open_loop(wire, source, checker.check, OPEN_RATE, 0.0, BURST_S)
            return await load.call_all(wire, traffic.read_back())

        before = session(daemon.port(), burst_and_read, CONNECTIONS)
        for kill in range(KILLS):
            if traced:
                daemon.proc.send_signal(signal.SIGUSR1)
                wait_for_file(spans_files[-1], daemon)
            reference = reference_launch(run)
            killed = run.children.kill(daemon)
            daemon = launch(directory)
            recoveries.append((daemon.ready_at - killed, reference))

            async def after(wire):
                return await load.call_all(wire, traffic.read_back()), await load.admin(wire, "conformance")

            after_reads, verdict = session(daemon.port(), after)
            check_conformance(verdict, f"after restart {cycle + 1}.{kill + 1}")
            check_read_back(before, after_reads, traffic.read_back())
            read_backs += len(after_reads)

    async def shutdown(wire):
        # the daemon may close the connection before its reply lands
        with contextlib.suppress(ConnectionError, asyncio.TimeoutError):
            await asyncio.wait_for(await wire.send({"method": "shutdown"}), 10)

    session(daemon.port(), shutdown)
    run.children.stop(daemon)
    if traced:
        wait_for_file(spans_files[-1], daemon)
    if checker.mismatches:
        raise RunFailed(f"{checker.mismatches} replies do not match their requests: {checker.problems}")

    p50 = stats.percentile(result.latencies_ms, 0.50)
    if p50.value is None:
        raise RunFailed(f"the window holds too few requests for a p50: {p50.describe('ms')}")
    # printed, not a metric: the p99 rides the box's disk stalls (METRICS.md)
    p99 = stats.percentile(result.latencies_ms, 0.99)
    (_t0, cpu0), (_t1, cpu1) = result.start_mark, result.end_mark
    cpu_ms = (cpu1 - cpu0) * 1e3 / result.committed
    phase = Phase(attempted=result.attempted, failed=result.failed)
    phase.e2e = {
        "setup_s": scaled_launches(setups),
        "throughput_per_s": result.committed / result.elapsed_s,
        "latency_p50_ms": speed.scale(p50.value, [wall for _cpu, wall in work], speed.WORK_S),
        "cpu_ms_per_unit": speed.scale(cpu_ms, [cpu for cpu, _wall in work], speed.WORK_S),
        "rss_peak_mib": rss_mib,
        "recovery_s": scaled_launches(recoveries),
    }
    work_note = work_note_for([cpu for cpu, _ in work], [wall for _, wall in work], "in the window")
    phase.notes = {
        "setup_s": f"median of {len(setups)} daemon launches to the listening line; "
        + launches_note(setups),
        "throughput_per_s": f"throughput_rps: {result.committed} committed in {result.elapsed_s:.2f} s",
        "latency_p50_ms": f"latency_p50 from due time, raw {p50.describe('ms')}; "
        f"latency_p99 raw {p99.describe('ms')}; {work_note}",
        "cpu_ms_per_unit": f"cpu_ms_per_txn: daemon user+sys {cpu1 - cpu0:.2f} s, "
        f"raw {cpu_ms:.4f} ms; {work_note}",
        "rss_peak_mib": f"daemon VmHWM after {result.total_committed} transactions",
        "recovery_s": f"median of {len(recoveries)} SIGKILL-to-ready restarts on the same "
        "directory; " + launches_note(recoveries),
        "failed_ratio": f"{result.failed}/{result.attempted} requests failed"
        + (f" ({'; '.join(result.errors)})" if result.errors else ""),
        "read_back": f"{read_backs} values equal before each kill and after its restart",
    }
    if traced:
        spans, events = tracing.load(spans_files[0])
        restart_spans = [span for path in spans_files[1:] for span in tracing.load(path)[0]]
        window = (result.window_start, result.window_end)
        phase.layers = layers.serve_layers(spans, events, window, result.committed, restart_spans)
        kept = [s for s in spans if window[0] <= s[1] <= window[1]]
        phase.layers["bench.trace.coverage"] = layers.coverage(kept, cpu1 - cpu0)
        phase.self_time = layers.self_time_by_name(spans, window)
        phase.traced_cpu_s = cpu1 - cpu0
    phase.layers.update(layers.generator_layers(result.late_ms, result.inflight_max))
    return phase


def check_conformance(verdict: Dict[str, Any], when: str) -> None:
    shards = verdict.get("shards") or []
    dirty = [s for s in shards if not s.get("ok") or s.get("sticky_failures")]
    if not verdict.get("ok") or not shards or dirty:
        detail = [
            {"shard": s.get("shard"), "failures": (s.get("failures") or [])[:2],
             "sticky": (s.get("sticky_failures") or [])[:2]}
            for s in dirty
        ]
        raise RunFailed(f"conformance verdict {when} is not clean: {detail or verdict}")


def check_read_back(before, after, txns) -> None:
    if before is None or after is None or len(before) != len(after):
        raise RunFailed("read-back incomplete")
    for ops, old, new in zip(txns, before, after):
        if not old.get("ok") or not new.get("ok"):
            raise RunFailed(f"read-back {ops} failed: {old} / {new}")
        if old.get("results") != new.get("results"):
            raise RunFailed(
                f"read-back {ops} returned {old.get('results')} before the kill and "
                f"{new.get('results')} after the restart"
            )


def reference_launch(run: Run) -> float:
    """Wall seconds from launch to ready of one ``speed.LAUNCH_ARGV``
    process, timed now, for the program launch timed next to it."""
    child = run.children.launch("reference", speed.LAUNCH_ARGV, speed.LAUNCH_READY)
    run.children.stop(child)
    return child.startup_s


def scaled_launches(pairs: List[Tuple[float, float]]) -> float:
    """Median of ``(launch timing, reference launch beside it)`` pairs,
    each timing scaled to nominal speed."""
    return statistics.median(speed.scale(raw, [ref], speed.LAUNCH_S) for raw, ref in pairs)


def work_note_for(cpu: List[float], wall: List[float], where: str) -> str:
    return (f"reference work {statistics.harmonic_mean(cpu) * 1e3:.4f} ms CPU, "
            f"{statistics.harmonic_mean(wall) * 1e3:.4f} ms wall (harmonic means of {len(cpu)} "
            f"chunks {where}; nominal {speed.WORK_S * 1e3:g} ms)")


def launches_note(pairs: List[Tuple[float, float]]) -> str:
    raw = statistics.median(raw for raw, _ref in pairs)
    ref = statistics.median(ref for _raw, ref in pairs)
    return (f"raw median {raw:.4f} s, reference launch median {ref:.4f} s "
            f"(nominal {speed.LAUNCH_S:g} s)")


def wait_for_file(path: str, child: procs.Child) -> None:
    deadline = time.perf_counter() + procs.TIMEOUT_S
    while not os.path.exists(path):
        if child.proc.poll() is not None or time.perf_counter() > deadline:
            raise RunFailed(f"no spans written to {path}\n{child.stderr_tail()}")
        time.sleep(0.02)


# -- mc-sweep ------------------------------------------------------------------------


def expected_verdicts() -> Dict[str, Any]:
    with open(os.path.join("benchmarks", "BENCH_por.json"), encoding="utf-8") as handle:
        return json.load(handle)["scopes"]


def mc_phase(run: Run, traced: bool) -> Phase:
    expected = expected_verdicts()
    sweeps: List[Dict[str, Any]] = []
    spans_by_sweep: List[List[tracing.Span]] = []
    setups: List[Tuple[float, float]] = []
    recoveries: List[Tuple[float, float]] = []
    # sweeping seconds per mode so far; the next sweep goes to the mode
    # furthest below its share, so the mix follows the box's speed
    spent = {mode: 0.0 for mode in MC_SHARE}
    began = time.perf_counter()
    while not (all(spent.values()) and time.perf_counter() - began >= run.seconds):
        mode = min(spent, key=lambda m: spent[m] / MC_SHARE[m])
        spans_path = run.path(f"explorer-spans-{len(sweeps)}.json") if traced else None
        argv = [sys.executable, os.path.join(HERE, "explorer.py"), mode]
        if spans_path:
            argv.append(spans_path)
        # an explorer killed a moment into its sweep times setup_s; the one
        # launched straight after the kill times recovery_s and sweeps
        reference = reference_launch(run)
        victim = run.children.launch("explorer", argv[:3], READY_EXPLORER)
        setups.append((victim.startup_s, reference))
        time.sleep(0.1)
        killed = run.children.kill(victim)
        child = run.children.launch("explorer", argv, READY_EXPLORER)
        recoveries.append((child.ready_at - killed, reference))
        sweeps.append(json.loads(run.children.read_rest(child)[-1]))
        spent[mode] += sweeps[-1]["wall_s"]
        if traced:
            spans_by_sweep.append(tracing.load(spans_path)[0])

    mismatches = []
    for sweep in sweeps:
        mode = "on" if sweep["por"] else "off"
        for scope, counts in sweep["scopes"].items():
            want = expected.get(scope, {}).get(mode)
            got = {key: counts[key] for key in ("states", "transitions", "ok")}
            if want is None or got != {key: want.get(key) for key in got}:
                mismatches.append(f"{scope} POR {mode}: got {got}, BENCH_por.json has {want}")
    for scope in expected:
        if scope not in sweeps[0]["scopes"]:
            mismatches.append(f"scope {scope} was not explored")
    if mismatches:
        raise RunFailed(
            "model-checker verdicts differ from benchmarks/BENCH_por.json: "
            + "; ".join(sorted(set(mismatches))[:5]),
            attempted=sum(len(s["scopes"]) for s in sweeps), failed=len(mismatches),
        )

    off = [s for s in sweeps if not s["por"]]
    on = [s for s in sweeps if s["por"]]

    def states(sweep):
        return sum(c["states"] for c in sweep["scopes"].values())

    def scaled(sweep, key):
        # the sweep's wall or CPU time at nominal speed, by the reference
        # work its explorer's sampler timed during it, in the same clock
        reference = sweep["reference_cpu_s" if key == "cpu_s" else "reference_wall_s"]
        return speed.scale(sweep[key], reference, speed.WORK_S)

    def raw_median(group, key):
        return statistics.median(s[key] for s in group)

    work_note = work_note_for([c for s in sweeps for c in s["reference_cpu_s"]],
                              [w for s in sweeps for w in s["reference_wall_s"]], "during the sweeps")
    phase = Phase(attempted=sum(len(s["scopes"]) for s in sweeps), failed=0)
    phase.e2e = {
        "setup_s": scaled_launches(setups),
        "throughput_per_s": statistics.median(states(s) / scaled(s, "wall_s") for s in off),
        "latency_p50_ms": statistics.median(scaled(s, "wall_s") for s in on) * 1e3,
        "cpu_ms_per_unit": statistics.median(scaled(s, "cpu_s") * 1e3 / (states(s) / 1000.0) for s in off),
        "rss_peak_mib": max(s["rss_peak_mib"] for s in sweeps),
        "recovery_s": scaled_launches(recoveries),
    }
    phase.notes = {
        "setup_s": f"median of {len(setups)} explorer launches to package imported and scopes "
        "built; " + launches_note(setups),
        "throughput_per_s": f"mc_states_per_s: POR off, median of {len(off)} sweeps "
        f"(raw sweep wall time {raw_median(off, 'wall_s'):.3f} s); {work_note}",
        "latency_p50_ms": f"mc_verdict_s in ms: POR-on sweep wall time, median of {len(on)} "
        f"sweeps (raw {raw_median(on, 'wall_s') * 1e3:.1f} ms)",
        "cpu_ms_per_unit": f"explorer CPU per 1000 explored states, POR off, median of {len(off)} "
        f"sweeps (raw sweep CPU {raw_median(off, 'cpu_s'):.3f} s)",
        "rss_peak_mib": "largest explorer VmHWM",
        "recovery_s": f"median of {len(recoveries)} SIGKILLs mid-sweep to relaunched explorer "
        "ready; " + launches_note(recoveries),
        "failed_ratio": f"0/{phase.attempted} explorations differ from BENCH_por.json",
    }
    if traced:
        phase.layers = layers.mc_layers(sweeps, spans_by_sweep)
        spans = [span for group in spans_by_sweep for span in group]
        # the spans' wall time covers the sampler's chunks too
        phase.traced_cpu_s = sum(s["process_cpu_s"] for s in sweeps)
        phase.layers["bench.trace.coverage"] = layers.coverage(spans, phase.traced_cpu_s)
        everything = (-math.inf, math.inf)
        for group in spans_by_sweep:
            for name, own in layers.self_time_by_name(group, everything).items():
                phase.self_time[name] = phase.self_time.get(name, 0.0) + own
    phase.layers.update(layers.generator_layers([], 0))
    return phase


# -- entry point -----------------------------------------------------------------------


def measure(run: Run, workload: str, traced: bool) -> Phase:
    if workload == "mc-sweep":
        return mc_phase(run, traced)
    return serve_phase(run, traced)


def provenance() -> Dict[str, Any]:
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath(os.getcwd()):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def declared_per_layer() -> Dict[str, str]:
    """Per-layer metric -> unit, as ``BENCHMARK.json`` declares them."""
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def report(workload: str, trace: bool, phase: Phase, untraced: Optional[Phase]) -> Dict[str, Any]:
    print(f"workload {workload} ({'traced' if trace else 'untraced'})")
    if not trace:
        for name, unit in END_TO_END.items():
            print(f"  {name:<20} {phase.e2e[name]:>12.4f} {unit:<5} {phase.notes.get(name, '')}")
        for name in ("failed_ratio", "read_back"):
            if name in phase.notes:
                print(f"  {name:<20} {phase.notes[name]}")
        return {name: {"value": phase.e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    produced = dict(phase.layers)
    for name, unit in END_TO_END.items():
        produced[f"bench.trace.overhead.{name}"] = (
            phase.e2e[name] - untraced.e2e[name], unit,
            f"traced {phase.e2e[name]:.4g} - untraced {untraced.e2e[name]:.4g}",
        )
    declared = declared_per_layer()
    wrong = {name: unit for name, (_v, unit, _n) in produced.items() if declared.get(name) != unit}
    if wrong:
        raise RunFailed(f"metrics missing from BENCHMARK.json or with another unit: {wrong}")
    metrics = {}
    for name, unit in sorted(declared.items()):
        value, _unit, note = produced.get(name, (0.0, unit, "layer not run by this workload"))
        print(f"  {name:<44} {value:>12.4f} {unit:<5} {note}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"self time by span (wall seconds, and as a share of the {phase.traced_cpu_s:.2f} s "
          "of CPU the traced process used):")
    for name, own in sorted(phase.self_time.items(), key=lambda item: -item[1]):
        print(f"  {name:<44} {own:>8.3f} s {own / phase.traced_cpu_s:>7.1%}")
    return metrics


def _deadline(_signum, _frame) -> None:
    raise RunFailed(f"run exceeded its {DEADLINE_S} s deadline")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (os.path.join("src", "repro", "serve", "daemon.py"),
                   os.path.join("benchmarks", "BENCH_por.json")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a checkout",
                  file=sys.stderr)
            return 2

    signal.signal(signal.SIGALRM, _deadline)
    signal.signal(signal.SIGTERM, _deadline)
    signal.alarm(DEADLINE_S)
    os.sched_setaffinity(0, procs.BENCH_CPUS)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    # a traced run's two passes, untraced and traced, share its seconds
    run = Run(args.seed, args.seconds / 2 if args.trace else args.seconds, workdir)
    attempted = failed = 0
    try:
        with run.children:
            first = measure(run, args.workload, traced=False)
            attempted, failed = first.attempted, first.failed
            phase, untraced = first, None
            if args.trace:
                phase, untraced = measure(run, args.workload, traced=True), first
                attempted += phase.attempted
                failed += phase.failed
        signal.alarm(0)
        print(f"provenance {json.dumps(provenance(), sort_keys=True)}")
        metrics = report(args.workload, bool(args.trace), phase, untraced)
        print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    except (RunFailed, ConnectionError, TimeoutError, asyncio.TimeoutError) as exc:
        signal.alarm(0)
        print(f"perfbench: {args.workload} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        for child in run.children.children:
            tail = child.stderr_tail()
            if tail and child.proc.returncode not in (0, -signal.SIGKILL):
                print(f"--- {child.name} (exit {child.proc.returncode}) stderr ---\n{tail}",
                      file=sys.stderr)
        if isinstance(exc, RunFailed) and exc.attempted:
            attempted, failed = attempted + exc.attempted, failed + exc.failed
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed,
                          "metrics": {}}))
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
