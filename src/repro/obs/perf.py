"""``repro perf`` — measure, judge and refresh every benchmark tier.

A tier (:data:`TIERS`) is *how to measure* plus *what is gated*:
``measure(tiny, seed)`` returns a document in the shape of the tier's
committed ``benchmarks/BENCH_<tier>.json``, and :class:`Gate` rows
``(path pattern, kind, tolerance or bound, unit, minimum usable cores)``
declare the gates over its paths.  One :func:`judge` applies every row,
so no tier has comparison code of its own, and ``repro report`` draws
every tier from the same rows (docs/OBSERVABILITY.md "Dashboards & perf
gates").

A pattern's ``*`` matches one key (a scope, a strategy, a list index)
and a matched node gates every leaf beneath it.  A row whose minimum
core count exceeds the host's is ``skip`` with that reason: a wall-clock
parallel speedup on fewer cores is a physical impossibility, not a
regression.  ``--tiny`` measures a subset of the full document's paths,
each exactly as the full run measures it, so the judge has no mode
logic: a row none of whose paths this run measured is ``skip``.

Exit protocol: ``0`` all green, ``2`` regression, ``1`` operational
error (missing or unreadable baseline, unknown tier).
``--refresh-baseline`` is the only writer of committed baselines: it
refuses ``--tiny`` and writes a tier's document, stamped with ``env``
(commit, usable cores, Python), when every absolute-bound row passes —
the relative rows are what it ratchets.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: src/repro/obs/perf.py -> src/, the directory ``repro`` is imported from
SRC_DIR = Path(__file__).resolve().parents[2]
REPO_ROOT = SRC_DIR.parent
#: the one directory holding every committed ``BENCH_<tier>.json``
BENCH_DIR = REPO_ROOT / "benchmarks"

KINDS = ("identity", "floor", "ceiling")
#: throughput slack for wall-clock rows: CI containers are noisy and
#: share cores; an accidental algorithmic change costs far more
TOLERANCE = 0.35
#: kernel timing repetitions; the best run counts
KERNEL_REPEAT = 3
#: the scopes ``--tiny`` runs where a tier sweeps model-checker scopes
TINY_SCOPES = ("mem-ww", "counter", "counter-sym")
#: the POR canonicalizer's memo misses, recorded per scope (``por.<name>``)
POR_MEMO_COUNTERS = ("t_cache_misses", "g_cache_misses", "sym_minimizations")
SERVE_REQUESTS = 400
#: single-transaction waves of the serve tier's memory soak row
SOAK_WAVES = 2000
FAULT_PLANS = 20
#: wall-clock parallelism rows need this many usable cores
MIN_PARALLEL_CORES = 4
#: daemon launches behind the startup tier's ``serve.ready_s`` median
STARTUP_LAUNCHES = 5
SERVE_READY = "serve: listening on"
#: the startup tier's import ceilings: the ``repro`` modules, and their
#: source lines, each command imports (see DESIGN.md "Cold start")
IMPORT_CEILINGS = {"serve": (45, 12417), "modelcheck": (26, 8180)}

_MISSING = object()


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def environment() -> Dict[str, Any]:
    """Provenance stamped on every measured document."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
    }


def flatten(document: Any, prefix: str = "") -> Dict[str, Any]:
    """Dotted leaf paths of a JSON document; list items are keyed by
    index and an empty container is itself a leaf."""
    if isinstance(document, dict) and document:
        items: Any = document.items()
    elif isinstance(document, list) and document:
        items = enumerate(document)
    else:
        return {prefix: document}
    flat: Dict[str, Any] = {}
    for key, value in items:
        flat.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return flat


def is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Gate:
    """One declared gate row (see the module docstring)."""

    path: str
    kind: str
    tolerance: Optional[float] = None
    bound: Any = None
    unit: str = ""
    min_cores: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"gate kind must be one of {KINDS}: {self.kind!r}")
        if self.kind != "identity" and (self.tolerance is None) == self.relative:
            raise ValueError(
                f"{self.path}: a {self.kind} row takes a tolerance or a bound"
            )

    @property
    def relative(self) -> bool:
        """Judged against the committed value (else against ``bound``)."""
        return self.bound is None

    @property
    def pattern(self) -> "re.Pattern[str]":
        body = r"[^.]+".join(re.escape(part) for part in self.path.split("*"))
        return re.compile(rf"({body})(?:\..+)?")

    def describe(self) -> str:
        sign = {"identity": "=", "floor": "≥", "ceiling": "≤"}[self.kind]
        if not self.relative:
            rule = f"{sign} {self.bound!r}"
        elif self.kind == "identity" or self.tolerance == 1:
            rule = f"{sign} committed"
        else:
            scale = "×" if self.kind == "floor" else "÷"
            rule = f"{sign} committed {scale} {self.tolerance:g}"
        return f"{self.kind} {rule} {self.unit}".rstrip()

    def check(self, measured: Any, committed: Any) -> Tuple[bool, str]:
        """``(ok, note)`` for one concrete path; the note says why it
        failed, or for a numeric row what it was held to."""
        if measured is _MISSING:
            return False, "not measured"
        if self.relative and committed is _MISSING:
            return False, f"measured {measured!r}, no committed value"
        reference = committed if self.relative else self.bound
        if self.kind == "identity":
            return measured == reference, f"{measured!r} != {reference!r}"
        if not (is_number(measured) and is_number(reference)):
            return False, f"{measured!r} vs {reference!r} is not numeric"
        if self.kind == "floor":
            limit = reference * self.tolerance if self.relative else reference
            return measured >= limit, f"{measured:g} vs floor {limit:g}"
        limit = reference / self.tolerance if self.relative else reference
        return measured <= limit, f"{measured:g} vs ceiling {limit:g}"


@dataclass
class PerfFinding:
    """One gate row's verdict inside one tier."""

    tier: str
    gate: Gate
    status: str  # "ok" | "FAIL" | "skip" | "moved" (ratcheted by a refresh)
    detail: str
    #: concrete path -> why it failed
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "FAIL"

    def row(self) -> str:
        lines = [
            f"{self.status:<5} {self.tier:<7} {self.gate.path:<36} "
            f"{self.gate.describe()}: {self.detail}"
        ]
        lines.extend(f"        {path}: {why}" for path, why in self.failures.items())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tier": self.tier,
            "path": self.gate.path,
            "kind": self.gate.kind,
            "rule": self.gate.describe(),
            "status": self.status,
            "detail": self.detail,
            "failures": dict(self.failures),
        }


def judge(
    tier: str,
    gates: Sequence[Gate],
    measured: Dict[str, Any],
    committed: Dict[str, Any],
    cores: int,
) -> List[PerfFinding]:
    """Apply every gate row to a measured document against a committed
    one.  A row covers each measured path it matches plus the committed
    paths beneath the same matched nodes, so a leaf missing on either
    side fails too."""
    got, want = flatten(measured), flatten(committed)
    findings = []
    for gate in gates:
        if gate.min_cores > cores:
            findings.append(PerfFinding(
                tier, gate, "skip",
                f"needs ≥ {gate.min_cores} usable cores, host has {cores}",
            ))
            continue
        pattern = gate.pattern
        nodes = {m.group(1) for m in map(pattern.fullmatch, got) if m}
        if not nodes:
            findings.append(
                PerfFinding(tier, gate, "skip", "not measured by this run")
            )
            continue
        paths = sorted(
            path for path in set(got) | set(want)
            if (m := pattern.fullmatch(path)) and m.group(1) in nodes
        )
        notes = {
            path: gate.check(got.get(path, _MISSING), want.get(path, _MISSING))
            for path in paths
        }
        failures = {path: note for path, (ok, note) in notes.items() if not ok}
        detail = f"{len(paths) - len(failures)}/{len(paths)} paths hold"
        if not failures and gate.kind != "identity" and len(paths) <= 3:
            detail = "; ".join(f"{path} {note}" for path, (_, note) in notes.items())
        findings.append(PerfFinding(
            tier, gate, "FAIL" if failures else "ok", detail, failures
        ))
    return findings


# -- tier measurements --------------------------------------------------------
# Each returns a document in its committed BENCH_<tier>.json shape; heavy
# imports stay inside so importing this module costs nothing.


def _scopes(tiny: bool) -> Sequence[str]:
    from repro.cli import SCOPES

    return TINY_SCOPES if tiny else tuple(SCOPES)


def measure_kernel(tiny: bool, seed: int) -> Dict[str, Any]:
    """Untraced POR-off exploration (best of :data:`KERNEL_REPEAT`) plus
    one rule-traced pass for the kernel's memo counters.  POR stays off:
    this tier isolates per-state kernel cost, and the reduced state space
    is the por tier's.

    ``gc_collections`` counts the cyclic collections that start while
    the untraced explores run, through a ``gc.callbacks`` hook armed
    around each call only.  A full collection first empties the young
    generation, so no collection already due when ``explore`` starts is
    charged to it; the one due when it restores the caller's thresholds
    fires after it returns and is the caller's."""
    import gc

    from repro.checking.model_checker import ExploreOptions, explore
    from repro.cli import SCOPES
    from repro.obs import RecordingTracer

    collections = 0

    def count_collection(phase: str, info: Dict[str, int]) -> None:
        nonlocal collections
        if phase == "start":
            collections += 1

    baselines = {}
    for scope in ("mem-ww",) if tiny else ("kvmap-branch", "mem-ww"):
        spec_cls, programs = SCOPES[scope]
        best = float("inf")
        collections = 0
        for _ in range(KERNEL_REPEAT):
            spec, options = spec_cls(), ExploreOptions(por=False)
            gc.collect()
            gc.callbacks.append(count_collection)
            try:
                start = time.perf_counter()
                report = explore(spec, programs, options)
                elapsed = time.perf_counter() - start
            finally:
                gc.callbacks.remove(count_collection)
            best = min(best, elapsed)
        tracer = RecordingTracer()
        explore(
            spec_cls(), programs,
            ExploreOptions(tracer=tracer, trace_rules=True, por=False),
        )
        gauges = next(
            e.args for e in reversed(tracer.events) if e.name == "packed.kernel"
        )
        traced = {
            name: tracer.counts.get(name, 0)
            for name in ("denot.hit", "denot.miss", "mover.left.hit",
                         "mover.left.miss")
        }
        traced.update({k: gauges[k] for k in ("packed.recipes", "packed.plans")})
        baselines[scope] = {
            "states_per_sec": round(report.states / best, 1),
            "gc_collections": collections,
            "verdict": {
                "states": report.states,
                "transitions": report.transitions,
                "final_states": report.final_states,
                "rule_counts": dict(sorted(report.rule_counts.items())),
                "ok": report.ok,
            },
            "traced": traced,
        }
    return {"baselines": baselines}


def measure_por(tiny: bool, seed: int) -> Dict[str, Any]:
    """Every scope with the reduction on and off.  A recording tracer
    collects the POR-on run's ``por.stats``, whose canonicalizer memo
    misses are recorded per scope."""
    from repro.checking import explore, verdict_fingerprint
    from repro.checking.model_checker import ExploreOptions
    from repro.cli import SCOPES
    from repro.obs import RecordingTracer

    def timed(run: Callable[[], Any]) -> Tuple[Any, float]:
        start = time.perf_counter()
        report = run()
        return report, time.perf_counter() - start

    scopes = {}
    for name in _scopes(tiny):
        spec_cls, programs = SCOPES[name]
        tracer = RecordingTracer()
        (on, t_on), (off, t_off) = (
            timed(lambda: explore(
                spec_cls(), programs,
                ExploreOptions(max_states=400_000, por=por, tracer=tracer),
            ))
            for por in (True, False)
        )
        stats = next(e.args for e in tracer.events if e.name == "por.stats")
        scopes[name] = {
            "on": {
                "states": on.states,
                "transitions": on.transitions,
                "elapsed_sec": round(t_on, 4),
                "ample_hits": on.ample_hits,
                "full_expansions": on.full_expansions,
                "ok": on.ok,
                **{
                    counter: int(stats[f"por.{counter}"])
                    for counter in POR_MEMO_COUNTERS
                },
            },
            "off": {
                "states": off.states,
                "transitions": off.transitions,
                "elapsed_sec": round(t_off, 4),
                "ok": off.ok,
            },
            "reduction": round(off.states / max(on.states, 1), 2),
            "verdict_identical": verdict_fingerprint(on) == verdict_fingerprint(off),
        }
    document: Dict[str, Any] = {"scopes": scopes}
    if not tiny:
        total_on = sum(row["on"]["states"] for row in scopes.values())
        total_off = sum(row["off"]["states"] for row in scopes.values())
        document["aggregate_reduction"] = round(total_off / max(total_on, 1), 2)
    return document


def measure_faults(tiny: bool, seed: int) -> Dict[str, Any]:
    """The seeded nemesis suite: every strategy × :data:`FAULT_PLANS`
    fault plans under the conformance gate."""
    from repro.faults.conformance import run_suite
    from repro.runtime.workload import WorkloadConfig
    from repro.tm import ALL_ALGORITHMS

    config = WorkloadConfig(
        transactions=5, ops_per_tx=3, keys=4, read_ratio=0.5, seed=seed
    )
    report = run_suite(
        sorted(ALL_ALGORITHMS), config,
        plans_per_strategy=FAULT_PLANS, base_seed=seed,
    )
    return {
        "mode": "tiny" if tiny else "full",
        "report": report.to_dict(),
        "suite": "chaos-conformance",
    }


def measure_packed(tiny: bool, seed: int) -> Dict[str, Any]:
    """Seeded random rule walks on which every visited state's packed key
    must decode to the object-level reference key."""
    from repro.checking.packedcheck import sweep_identity
    from repro.cli import SCOPES

    scopes = {name: SCOPES[name] for name in _scopes(tiny)}
    return sweep_identity(scopes, steps=60, walks=3, seed=seed)


def measure_serve_tier(tiny: bool, seed: int) -> Dict[str, Any]:
    """The daemon end to end: the inline gate rows (deterministic and
    fork-free) and the process-mode matrix (one forked worker per shard,
    the deployment shape), of which ``--tiny`` runs one row, plus the
    shard-scaling row.  Inline and process rows are not comparable."""
    from repro.serve.bench import measure_serve, measure_soak

    def row(strategy: str, shards: int, mode: str, cross: float = 0.0):
        return measure_serve(
            strategy, shards, mode=mode, requests=SERVE_REQUESTS,
            cross_ratio=cross, seed=seed,
        )

    document: Dict[str, Any] = {
        "mode": "tiny" if tiny else "full",
        "requests": SERVE_REQUESTS,
        "seed": seed,
    }
    configs = [("encounter", 2, 0.0)] if tiny else [
        (strategy, shards, 0.0)
        for strategy in ("encounter", "tl2", "globallock")
        for shards in (1, 2, 4)
    ] + [("encounter", 2, 0.2)]
    matrix = document["matrix"] = {
        f"{strategy}x{shards}{'+cross' if cross else ''}":
            row(strategy, shards, "process", cross)
        for strategy, shards, cross in configs
    }
    if not tiny:
        one, two = matrix["encounterx1"]["rps"], matrix["encounterx2"]["rps"]
        cores = usable_cores()
        document["scaling"] = {
            "workload": "kvmap",
            "strategy": "encounter",
            "one_shard_rps": one,
            "two_shard_rps": two,
            "speedup": round(two / max(one, 1e-9), 2),
            "usable_cores": cores,
            "gated": cores >= MIN_PARALLEL_CORES,
        }
    document["gate"] = {
        f"encounterx{shards}": row("encounter", shards, "inline")
        for shards in (1, 2)
    }
    # One request in flight, so every wave holds one transaction and the
    # fsync count is exact: one per single-shard commit, and per
    # cross-shard commit one per participant's prepare plus the decide.
    with tempfile.TemporaryDirectory(prefix="repro-perf-serve-") as durable:
        document["durable"] = {
            "encounterx2+cross": measure_serve(
                "encounter", 2, mode="inline", requests=SERVE_REQUESTS,
                cross_ratio=0.2, seed=seed, max_inflight=1, durable=durable,
            )
        }
    document["soak"] = measure_soak(seed, SOAK_WAVES)
    return document


def measure_durable_tier(tiny: bool, seed: int) -> Dict[str, Any]:
    from repro.durable.bench import measure_durable

    return {"mode": "tiny" if tiny else "full", **measure_durable(seed=seed)}


def _declared_opaque(strategy: str) -> bool:
    if strategy == "hybrid":
        from repro.faults.conformance import chaos_setup
        from repro.runtime.workload import WorkloadConfig

        algorithm, _, _ = chaos_setup(
            "hybrid", WorkloadConfig(transactions=1, ops_per_tx=1, keys=1,
                                     read_ratio=0.5, seed=0)
        )
        return algorithm.opaque
    from repro.tm import ALL_ALGORITHMS

    return ALL_ALGORITHMS[strategy]().opaque


def measure_opacity(tiny: bool, seed: int) -> Dict[str, Any]:
    """Every strategy walked up the registered frontier ladder under the
    TMS2 decision (exhaustive and witness-only), plus the TMS2 verdict on
    every model-checker scope."""
    from repro.checking import explore
    from repro.checking.frontier import FRONTIER_LADDER, find_frontier
    from repro.checking.model_checker import ExploreOptions
    from repro.checking.tms2 import tms2_stats_snapshot
    from repro.cli import SCOPES
    from repro.tm import ALL_ALGORITHMS

    started = time.perf_counter()
    # the opacity.* counters are process-wide: keep this tier's share
    before = tms2_stats_snapshot()
    strategies = {}
    for strategy in sorted(ALL_ALGORITHMS):
        result = find_frontier(strategy)
        row = result.to_dict()
        row["matches_declared_label"] = result.opaque == _declared_opaque(strategy)
        row["probes"] = [
            {
                "rung": probe.rung.name,
                "commits": probe.commits,
                "tms2_violations": len(probe.tms2_violations),
                "witness_agrees": probe.witness_agrees,
            }
            for probe in result.probes
        ]
        strategies[strategy] = row
    scopes = {}
    for name, (spec_cls, programs) in SCOPES.items():
        report = explore(
            spec_cls(), programs, ExploreOptions(opacity_checker="tms2")
        )
        scopes[name] = {
            "terminals": report.opacity_terminals,
            "violations": len(report.opacity_violations),
            "ok": report.ok,
        }
    return {
        "elapsed_sec": round(time.perf_counter() - started, 3),
        "ladder": [rung.to_dict() for rung in FRONTIER_LADDER],
        "mode": "tiny" if tiny else "full",
        "scopes": scopes,
        "stats": {
            name: count - before.get(name, 0)
            for name, count in tms2_stats_snapshot().items()
        },
        "strategies": strategies,
    }


def repro_modules(importtime: str) -> List[str]:
    """The ``repro`` modules an ``-X importtime`` log names."""
    pattern = re.compile(r"^import time:.*\|\s*(repro(?:\.\w+)*)$", re.M)
    return sorted(set(pattern.findall(importtime)))


def _repro_imports(importtime: str) -> Dict[str, int]:
    """How many ``repro`` modules an ``-X importtime`` log names, and
    their source lines."""
    names = repro_modules(importtime)
    lines = 0
    for name in names:
        path = SRC_DIR.joinpath(*name.split("."))
        source = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        lines += len(source.read_text(encoding="utf-8").splitlines())
    return {"modules": len(names), "src_lines": lines}


def child_env() -> Dict[str, str]:
    """This process's environment, with ``repro`` imported from :data:`SRC_DIR`."""
    path = filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH")))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@dataclass
class ServeLaunch:
    """A ``repro serve`` process that has printed its listening line."""

    #: seconds from launch to the listening line
    ready_s: float
    #: everything it wrote before that line, stderr included, in order
    before: str
    line: str
    proc: subprocess.Popen

    @property
    def port(self) -> int:
        return int(re.search(r"listening on [^\s:]+:(\d+)", self.line).group(1))


@contextlib.contextmanager
def serve_launch(directory: str, python_flags: Sequence[str] = ()):
    """Launch ``repro serve --port 0 --durable directory`` in a fresh
    interpreter (started with ``python_flags``) and yield its
    :class:`ServeLaunch` once it listens; the process is killed on exit.
    Nothing reads its output meanwhile: ``proc.stdout`` holds the rest."""
    argv = [sys.executable, *python_flags, "-m", "repro", "serve", "--port", "0",
            "--durable", directory]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=child_env(), text=True)
    try:
        before: List[str] = []
        for line in proc.stdout:
            if line.startswith(SERVE_READY):
                seconds = time.perf_counter() - started
                yield ServeLaunch(seconds, "".join(before), line, proc)
                return
            before.append(line)
        raise RuntimeError(f"repro serve exited before listening: {''.join(before)[-500:]}")
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def measure_startup(tiny: bool, seed: int) -> Dict[str, Any]:
    """What a fresh interpreter imports before it can work: the ``repro``
    modules a ``--durable`` daemon imports before its listening line, the
    ones a whole ``repro modelcheck`` run imports (both read from ``-X
    importtime``), and the daemon's launch-to-listening seconds."""
    ready: List[float] = []
    with tempfile.TemporaryDirectory(prefix="repro-perf-startup-") as tmp:
        with serve_launch(os.path.join(tmp, "imports"), ("-X", "importtime")) as traced:
            imports = _repro_imports(traced.before)
        for launch in range(STARTUP_LAUNCHES):
            with serve_launch(os.path.join(tmp, f"ready-{launch}")) as daemon:
                ready.append(daemon.ready_s)
    modelcheck = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "modelcheck"],
        capture_output=True, text=True, timeout=300, check=True,
        env=child_env(),
    )
    return {
        "serve": {**imports, "ready_s": round(statistics.median(ready), 4)},
        "modelcheck": _repro_imports(modelcheck.stderr),
    }


# -- the tier table -----------------------------------------------------------


@dataclass(frozen=True)
class Tier:
    name: str
    title: str
    measure: Callable[[bool, int], Dict[str, Any]]
    gates: Tuple[Gate, ...]
    #: what ``--tiny`` leaves out (shown in the report)
    note: str = ""


TIERS: Dict[str, Tier] = {tier.name: tier for tier in (
    Tier(
        "kernel", "Kernel throughput", measure_kernel,
        (
            Gate("baselines.*.verdict", "identity"),
            Gate("baselines.*.states_per_sec", "floor", TOLERANCE,
                 unit="states/s"),
            # memo misses and memo populations are deterministic: they may
            # fall, never rise, so an algorithmic regression fails on any box
            Gate("baselines.*.traced.denot.miss", "ceiling", 1.0, unit="count"),
            Gate("baselines.*.traced.mover.left.miss", "ceiling", 1.0,
                 unit="count"),
            Gate("baselines.*.traced.packed.recipes", "ceiling", 1.0,
                 unit="count"),
            Gate("baselines.*.traced.packed.plans", "ceiling", 1.0,
                 unit="count"),
            # every counter present: a silent tracing regression would
            # otherwise make the ceilings unfalsifiable
            Gate("baselines.*.traced", "floor", bound=1, unit="count"),
            # explore pauses automatic collection; outside ``traced``,
            # whose floor of 1 would forbid the 0 this row must read
            Gate("baselines.*.gc_collections", "ceiling", bound=0,
                 unit="collections"),
        ),
        "--tiny explores mem-ww only",
    ),
    Tier(
        "por", "Partial-order reduction", measure_por,
        (
            Gate("scopes.*.on.states", "identity"),
            Gate("scopes.*.on.transitions", "identity"),
            Gate("scopes.*.on.ample_hits", "identity"),
            Gate("scopes.*.on.full_expansions", "identity"),
            Gate("scopes.*.on.ok", "identity"),
            Gate("scopes.*.off.states", "identity"),
            Gate("scopes.*.off.transitions", "identity"),
            Gate("scopes.*.off.ok", "identity"),
            Gate("scopes.*.verdict_identical", "identity", bound=True),
            # canonicalizer memo misses may fall, never rise
            *(
                Gate(f"scopes.*.on.{counter}", "ceiling", 1.0, unit="count")
                for counter in POR_MEMO_COUNTERS
            ),
            # aggregate, not per scope: all-conflicting scopes (mem-ww)
            # have no sound payload-level quotient and honestly read 1.0x
            Gate("aggregate_reduction", "floor", bound=2.0, unit="x"),
        ),
        "--tiny runs mem-ww, counter and counter-sym, so no aggregate "
        "reduction",
    ),
    Tier(
        "faults", "Chaos suite", measure_faults,
        (
            Gate("report.strategies.*.gate_failures", "ceiling", bound=0),
            # a chaos suite that never faults a strategy proves nothing
            Gate("report.strategies.*.injected", "floor", bound=1),
            Gate("report.strategies.*.plans", "identity"),
            Gate("report.strategies.*.commits", "identity"),
            Gate("report.strategies.*.aborts", "identity"),
            Gate("report.strategies.*.injected", "identity"),
            Gate("report.strategies.*.permanently_aborted", "identity"),
        ),
    ),
    Tier(
        "packed", "Packed-key contract", measure_packed,
        (
            Gate("scopes.*.mismatches", "identity", bound=[]),
            Gate("scopes.*.checked_states", "identity"),
            Gate("intern_tables", "floor", bound=1, unit="entries"),
        ),
        "--tiny walks mem-ww, counter and counter-sym",
    ),
    Tier(
        "serve", "Serve daemon", measure_serve_tier,
        (
            Gate("gate.*.rps", "floor", TOLERANCE, unit="req/s"),
            Gate("gate.*.p99_ms", "ceiling", TOLERANCE, unit="ms"),
            Gate("gate.*.conformance_ok", "identity", bound=True),
            Gate("matrix.*.conformance_ok", "identity", bound=True),
            # a count, not a clock: it fails on any box
            Gate("durable.*.fsyncs_per_txn", "ceiling", 1.0, unit="fsyncs"),
            Gate("durable.*.conformance_ok", "identity", bound=True),
            # what a rolled-over wave leaves alive: the intern table's
            # share (~0.4 KB/wave) fits, a per-wave leak does not
            Gate("soak.retained_bytes_per_wave", "ceiling", bound=1536,
                 unit="B"),
            Gate("soak.empty_log_slots_added", "ceiling", bound=0,
                 unit="slots"),
            Gate("soak.conformance_ok", "identity", bound=True),
            # 2 shards must beat 1 (speedup is rounded to 0.01)
            Gate("scaling.speedup", "floor", bound=1.01, unit="x",
                 min_cores=MIN_PARALLEL_CORES),
        ),
        "--tiny runs the gate rows, the durable row, the soak row and one "
        "process-mode row",
    ),
    Tier(
        "durable", "Durable log", measure_durable_tier,
        (
            Gate("append.*.records_per_sec", "floor", TOLERANCE,
                 unit="records/s"),
            Gate("recovery.*.commits_per_sec", "floor", TOLERANCE,
                 unit="commits/s"),
            Gate("recovery.*.conformance_ok", "identity", bound=True),
            # every recovery run damages the tail first
            Gate("recovery.*.torn_tail_dropped", "floor", bound=1, unit="B"),
            Gate("recovery.*.replayed_commits", "identity"),
        ),
    ),
    Tier(
        "opacity", "Opacity frontiers", measure_opacity,
        (
            # a frontier index only means something against its ladder
            Gate("ladder", "identity"),
            Gate("strategies.*.opaque", "identity"),
            Gate("strategies.*.frontier", "identity"),
            Gate("strategies.*.frontier_index", "identity"),
            Gate("strategies.*.matches_declared_label", "identity", bound=True),
            # the commit-order witness, which decides every gate window
            # past seven commits, reaches the exhaustive verdict
            Gate("strategies.*.probes.*.witness_agrees", "identity",
                 bound=True),
            Gate("scopes.*.violations", "ceiling", bound=0),
            Gate("scopes.*.ok", "identity", bound=True),
        ),
    ),
    Tier(
        "startup", "Cold start", measure_startup,
        (
            # counts, not clocks: an import that creeps back onto a path
            # fails on any box
            *(
                gate
                for command, (modules, lines) in IMPORT_CEILINGS.items()
                for gate in (
                    Gate(f"{command}.modules", "ceiling", bound=modules,
                         unit="modules"),
                    Gate(f"{command}.src_lines", "ceiling", bound=lines,
                         unit="lines"),
                )
            ),
            Gate("serve.ready_s", "ceiling", TOLERANCE, unit="s"),
        ),
    ),
)}


# -- running the tiers --------------------------------------------------------


class BaselineError(RuntimeError):
    """A baseline file is missing or unusable, or a tier is unknown
    (exit 1, not 2 — the watchdog cannot judge without a reference)."""


def baseline_path(tier: str, baselines: Path = BENCH_DIR) -> Path:
    return Path(baselines) / f"BENCH_{tier}.json"


def load_baseline(path: Path) -> Dict[str, Any]:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BaselineError(f"baseline file not found: {path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"unreadable baseline {path}: {exc}") from None


@dataclass
class PerfReport:
    """Everything one ``repro perf`` pass concluded."""

    tiny: bool
    findings: List[PerfFinding] = field(default_factory=list)
    #: tier -> written baseline path (``--refresh-baseline``)
    refreshed: Dict[str, str] = field(default_factory=dict)
    elapsed_sec: float = 0.0

    @property
    def regressions(self) -> List[PerfFinding]:
        return [f for f in self.findings if not f.ok]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "tiny": self.tiny,
            "findings": [f.to_dict() for f in self.findings],
            "refreshed": dict(self.refreshed),
            "elapsed_sec": round(self.elapsed_sec, 3),
        }

    def render(self) -> str:
        lines = [f.row() for f in self.findings]
        lines.extend(
            f"refreshed {tier} -> {path}" for tier, path in self.refreshed.items()
        )
        skipped = sum(f.status == "skip" for f in self.findings)
        verdict = (
            "all gates green" if self.ok
            else f"{len(self.regressions)} regression(s)"
        )
        lines.append(
            f"perf: {verdict}, {skipped} skipped "
            f"({'tiny' if self.tiny else 'full'} run, {self.elapsed_sec:.1f}s)"
        )
        return "\n".join(lines)


def run_perf(
    tiers: Sequence[str] = tuple(TIERS),
    tiny: bool = False,
    refresh: bool = False,
    baselines: Path = BENCH_DIR,
    seed: int = 0,
) -> PerfReport:
    """Measure and judge ``tiers`` against ``baselines/BENCH_<tier>.json``;
    every measured document also lands in ``baselines/out/`` (gitignored).

    Raises :class:`BaselineError` when a reference is unusable; a
    measured regression lands as a failing finding (the CLI maps
    ``report.ok`` to exit code 2).
    """
    if refresh and tiny:
        raise BaselineError(
            "--refresh-baseline refuses --tiny: a baseline records the full run"
        )
    unknown = [name for name in tiers if name not in TIERS]
    if unknown:
        raise BaselineError(f"unknown tier(s) {unknown}; tiers: {list(TIERS)}")
    report = PerfReport(tiny=tiny)
    started = time.perf_counter()
    env = environment()
    for name in tiers:
        tier = TIERS[name]
        path = baseline_path(name, baselines)
        committed = (
            load_baseline(path) if path.exists() or not refresh else {}
        )
        measured = {**tier.measure(tiny, seed), "env": env}
        current = Path(baselines) / "out" / f"BENCH_{name}.current.json"
        current.parent.mkdir(parents=True, exist_ok=True)
        current.write_text(json.dumps(measured, indent=2) + "\n", encoding="utf-8")
        findings = judge(name, tier.gates, measured, committed, env["usable_cores"])
        report.findings.extend(findings)
        if refresh and all(f.ok for f in findings if not f.gate.relative):
            path.write_text(json.dumps(measured, indent=2) + "\n", encoding="utf-8")
            report.refreshed[name] = str(path)
            for finding in findings:
                if not finding.ok:  # a relative row: what the refresh ratchets
                    finding.status = "moved"
    report.elapsed_sec = time.perf_counter() - started
    return report
