"""The fuzzing loop: corpus baseline, coverage-gated mutation, gates.

Control flow of one :meth:`Fuzzer.fuzz` session:

1. **baseline** — every seed-corpus entry runs through every enabled real
   strategy; their coverage triples seed the map, and any failure here is
   a released bug (artifact + nonzero exit);
2. **mutation loop** — ``budget`` iterations: pick a corpus parent, apply
   one seeded mutation, run the mutant across all strategies.  The mutant
   joins the (in-memory) corpus **only** if it lit a coverage triple
   nothing before it reached — the coverage-guided admission rule;
3. **gates** — the bug-zoo sensitivity check (every
   :mod:`repro.tm.broken` strategy must be caught on the seed corpus)
   and the criterion-coverage ratchet
   (``tests/corpus/expected_coverage.json`` ⊆ observed map).

Everything is deterministic from ``(corpus, seed, budget)``: mutation
draws from one seeded PRNG, runs are pure functions of their entry, and
``--jobs`` parallelism only changes *where* runs execute, not their
results (workers receive plain dicts, results come back in submission
order, and admission decisions are taken after a mutant's full
cross-strategy sweep).
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fuzz.artifacts import write_artifact
from repro.fuzz.corpus import (
    EXPECTED_COVERAGE_FILE,
    CorpusEntry,
    load_corpus,
)
from repro.fuzz.coverage import CoverageMap, key_to_str
from repro.fuzz.mutators import mutate_entry
from repro.fuzz.oracle import MAX_RETRIES, enabled_strategies, run_entry
from repro.fuzz.shrink import shrink_failure
from repro.obs.flight import FlightRecorder, maybe_dump
from repro.obs.profiling import Profile
from repro.obs.tracer import RecordingTracer
from repro.tm.broken import BROKEN_ALGORITHMS


def _summarize_run(run, entry_name: str) -> Dict:
    """The compact dict-shaped verdict of one (entry, strategy) run —
    what crosses the process boundary under ``--jobs`` and what the
    engine's admission/failure logic consumes either way."""
    return {
        "strategy": run.strategy,
        "entry_name": entry_name,
        "ok": run.ok,
        "failures": [[f.check, f.detail] for f in run.failures],
        "coverage": sorted(key_to_str(k) for k in run.coverage),
        "fingerprint": run.fingerprint(),
        "commits": run.commits,
        "aborts": run.aborts,
        "permanently_aborted": run.permanently_aborted,
        "divergence_checked": run.divergence_checked,
    }


def _run_payload(payload: Dict) -> Dict:
    """Worker entry point for ``--jobs`` parallelism.

    Module-level and dict-in/dict-out so it pickles cleanly into a
    :class:`~concurrent.futures.ProcessPoolExecutor`; the heavyweight
    pieces (normalized event stream) stay in the worker — a failing pair
    is re-run in-process when the engine needs the full
    :class:`~repro.fuzz.oracle.StrategyRun`.
    """
    entry = CorpusEntry.from_dict(payload["entry"])
    run = run_entry(
        entry, payload["strategy"], max_retries=payload["max_retries"]
    )
    return _summarize_run(run, entry.name)


@dataclass
class FuzzReport:
    """Everything one fuzzing session concluded."""

    seed: int
    budget: int
    strategies: List[str]
    corpus_size: int
    executions: int = 0
    admitted: List[str] = field(default_factory=list)
    coverage: CoverageMap = field(default_factory=CoverageMap)
    failures: List[Dict] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)
    zoo_caught: Dict[str, List[str]] = field(default_factory=dict)
    zoo_escapes: List[str] = field(default_factory=list)
    coverage_gaps: List[str] = field(default_factory=list)
    #: flight-recorder dumps auto-written next to the failure artifacts
    flight_dumps: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Green iff no real strategy failed, no zoo strategy escaped and
        the coverage ratchet holds."""
        return not self.failures and not self.zoo_escapes and not self.coverage_gaps

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "budget": self.budget,
            "strategies": self.strategies,
            "corpus_size": self.corpus_size,
            "executions": self.executions,
            "admitted": self.admitted,
            "coverage_points": len(self.coverage),
            "coverage_by_strategy": self.coverage.by_strategy(),
            "failures": self.failures,
            "artifacts": self.artifacts,
            "zoo_caught": self.zoo_caught,
            "zoo_escapes": self.zoo_escapes,
            "coverage_gaps": self.coverage_gaps,
            "flight_dumps": self.flight_dumps,
        }


def criterion_coverage_gaps(
    coverage: CoverageMap, expected_path: str
) -> List[str]:
    """Expected coverage points (the committed ratchet file) that the
    observed map never exercised, as sorted ``strategy|rule|outcome``
    strings.  A missing expectation file means no ratchet: empty list."""
    if not os.path.exists(expected_path):
        return []
    expected = CoverageMap.read(expected_path)
    return [key_to_str(k) for k in coverage.missing(expected.keys)]


def zoo_sensitivity(
    entries: Sequence[CorpusEntry],
    max_retries: int = MAX_RETRIES,
    strategies: Optional[Sequence[str]] = None,
    coverage: Optional[CoverageMap] = None,
) -> Tuple[Dict[str, List[str]], List[str]]:
    """Run the seed corpus through the known-bug zoo.

    Returns ``(caught, escapes)``: per broken strategy the sorted set of
    failure checks the oracle raised anywhere in the corpus, and the
    strategies it never caught at all.  A non-empty ``escapes`` means the
    oracle has lost sensitivity — the fuzzing equivalent of a dead smoke
    detector.  Pass ``coverage`` to fold the zoo runs' coverage triples
    into the session map (the expectation file includes them, so the
    ratchet also notices a zoo strategy whose bug stops being reached).
    """
    names = list(strategies) if strategies is not None else sorted(BROKEN_ALGORITHMS)
    caught: Dict[str, List[str]] = {name: [] for name in names}
    for name in names:
        checks = set()
        for entry in entries:
            run = run_entry(entry, name, max_retries=max_retries)
            checks.update(run.failure_checks)
            if coverage is not None:
                coverage.add(run.coverage)
        caught[name] = sorted(checks)
    escapes = [name for name in names if not caught[name]]
    return caught, escapes


class Fuzzer:
    """Coverage-guided differential fuzzer over a seed corpus."""

    def __init__(
        self,
        corpus_dir: str,
        strategies: Optional[Sequence[str]] = None,
        seed: int = 0,
        max_retries: int = MAX_RETRIES,
        artifacts_dir: Optional[str] = None,
        jobs: int = 1,
        shrink: bool = True,
        profile: Optional[Profile] = None,
    ) -> None:
        self.corpus_dir = corpus_dir
        self.strategies = (
            list(strategies) if strategies is not None else enabled_strategies()
        )
        self.seed = seed
        self.max_retries = max_retries
        self.artifacts_dir = artifacts_dir
        self.jobs = max(1, jobs)
        self.shrink = shrink
        #: when set, every sweep runs in-process and its span attribution
        #: accumulates here (``--jobs`` is ignored: worker processes
        #: cannot ship their event streams back affordably)
        self.profile = profile

    # -- execution -----------------------------------------------------------

    def _sweep(
        self, pairs: Sequence[Tuple[CorpusEntry, str]]
    ) -> List[Dict]:
        """Run (entry, strategy) pairs, in order, possibly in parallel.
        Results come back in submission order either way, which keeps the
        whole session deterministic under any ``--jobs``."""
        if self.profile is not None:
            out = []
            for entry, strategy in pairs:
                tracer = RecordingTracer()
                run = run_entry(
                    entry, strategy, max_retries=self.max_retries, tracer=tracer
                )
                self.profile.add_tracer(tracer)
                out.append(_summarize_run(run, entry.name))
            return out
        payloads = [
            {
                "entry": entry.to_dict(),
                "strategy": strategy,
                "max_retries": self.max_retries,
            }
            for entry, strategy in pairs
        ]
        if self.jobs == 1 or len(payloads) <= 1:
            return [_run_payload(p) for p in payloads]
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            return list(pool.map(_run_payload, payloads))

    def _record_failure(
        self, report: FuzzReport, entry: CorpusEntry, summary: Dict
    ) -> None:
        report.failures.append(
            {
                "entry": entry.name,
                "strategy": summary["strategy"],
                "checks": sorted({check for check, _ in summary["failures"]}),
                "failures": summary["failures"],
                "fingerprint": summary["fingerprint"],
            }
        )
        if self.artifacts_dir is None:
            return
        # re-run in-process for the full StrategyRun (events, choices)
        run = run_entry(entry, summary["strategy"], max_retries=self.max_retries)
        if run.ok:  # pragma: no cover - determinism violation guard
            return
        # ... and once more through the bounded flight recorder: the
        # black-box tail dump rides along with the artifact (runs are
        # pure functions of (entry, strategy), so this replays exactly).
        flight = FlightRecorder(auto_dump_dir=self.artifacts_dir)
        run_entry(
            entry, summary["strategy"], max_retries=self.max_retries, tracer=flight
        )
        dump = maybe_dump(
            flight,
            label=f"fuzz-{entry.name}-{summary['strategy']}",
            reason=run.failure_checks[0] if run.failure_checks else "failure",
            meta={"entry": entry.name, "strategy": summary["strategy"]},
        )
        if dump:
            report.flight_dumps.append(dump)
        shrunk = None
        if self.shrink:
            try:
                shrunk = shrink_failure(
                    entry,
                    summary["strategy"],
                    check=run.failure_checks[0],
                    max_retries=self.max_retries,
                )
            except ValueError:  # pragma: no cover
                shrunk = None
        report.artifacts.append(
            write_artifact(self.artifacts_dir, run, shrunk)
        )

    # -- the session ---------------------------------------------------------

    def fuzz(self, budget: int = 0) -> FuzzReport:
        """One full session: baseline + ``budget`` mutation rounds +
        gates.  ``budget`` counts *mutants evaluated* (each mutant runs
        across every enabled strategy)."""
        corpus = load_corpus(self.corpus_dir)
        report = FuzzReport(
            seed=self.seed,
            budget=budget,
            strategies=list(self.strategies),
            corpus_size=len(corpus),
        )
        if not corpus:
            report.zoo_escapes = sorted(BROKEN_ALGORITHMS)
            return report

        # 1. baseline: the committed corpus must be green on real strategies
        pairs = [(e, s) for e in corpus for s in self.strategies]
        for (entry, _), summary in zip(pairs, self._sweep(pairs)):
            report.executions += 1
            report.coverage.add(
                tuple(k.split("|", 2)) for k in summary["coverage"]
            )
            if not summary["ok"]:
                self._record_failure(report, entry, summary)

        # 2. coverage-guided mutation
        rng = random.Random(self.seed)
        seen = {entry.fingerprint() for entry in corpus}
        population = list(corpus)
        for _ in range(budget):
            parent = rng.choice(population)
            mutant = mutate_entry(parent, rng)
            if not mutant.programs or mutant.fingerprint() in seen:
                continue
            seen.add(mutant.fingerprint())
            pairs = [(mutant, s) for s in self.strategies]
            fresh = set()
            summaries = self._sweep(pairs)
            for summary in summaries:
                report.executions += 1
                fresh |= report.coverage.add(
                    tuple(k.split("|", 2)) for k in summary["coverage"]
                )
                if not summary["ok"]:
                    self._record_failure(report, mutant, summary)
            if fresh:
                population.append(mutant)
                report.admitted.append(mutant.name)

        # 3a. zoo sensitivity on the seed corpus
        report.zoo_caught, report.zoo_escapes = zoo_sensitivity(
            corpus, max_retries=self.max_retries, coverage=report.coverage
        )

        # 3b. the criterion-coverage ratchet
        report.coverage_gaps = criterion_coverage_gaps(
            report.coverage,
            os.path.join(self.corpus_dir, EXPECTED_COVERAGE_FILE),
        )
        return report
