"""The known-bug zoo gates the oracle's sensitivity (ISSUE 5).

Every deliberately broken strategy in :mod:`repro.tm.broken` must be
caught by the differential oracle somewhere in the committed seed corpus
— with the failure *kind* its docstring promises — while every real
strategy stays green on the exact same entries.  If a refactor ever
weakens a checker, the corresponding zoo member escapes and this file
fails before the weakened oracle can certify anything.
"""

import os

import pytest

from repro.fuzz.corpus import load_corpus
from repro.fuzz.engine import zoo_sensitivity
from repro.fuzz.oracle import enabled_strategies, make_algorithm, run_entry
from repro.tm import ALL_ALGORITHMS
from repro.tm.broken import BROKEN_ALGORITHMS

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: the check kind each zoo member's bug is designed to surface through
EXPECTED_CHECKS = {
    "broken-crash": "exception",       # MS_END rejects the dirty teardown
    "broken-push-nocheck": "exception",  # CMT criterion (ii) escapes raw
    "broken-stale-pull": "divergence",   # only the atomic cover sees it
    "broken-lost-unapp": "exception",    # stranded local-log entry
    "broken-dirty-read": "opacity",      # uncommitted PULL, opaque claim
}


@pytest.fixture(scope="module")
def corpus():
    entries = load_corpus(CORPUS_DIR)
    assert entries, "committed seed corpus is missing"
    return entries


@pytest.fixture(scope="module")
def zoo_result(corpus):
    return zoo_sensitivity(corpus)


class TestZooRegistry:
    def test_zoo_covers_the_issue_checklist(self):
        assert set(BROKEN_ALGORITHMS) == set(EXPECTED_CHECKS)

    def test_zoo_is_never_registered_as_real(self):
        assert not set(BROKEN_ALGORITHMS) & set(ALL_ALGORITHMS)

    @pytest.mark.parametrize("name", sorted(EXPECTED_CHECKS))
    def test_zoo_resolves_through_the_oracle_factory(self, name):
        assert make_algorithm(name).name == name


class TestZooSensitivity:
    def test_no_zoo_strategy_escapes(self, zoo_result):
        _, escapes = zoo_result
        assert escapes == [], (
            f"oracle lost sensitivity: {escapes} never caught on the seed "
            "corpus (regenerate with tools/make_seed_corpus.py or fix the "
            "weakened checker)"
        )

    @pytest.mark.parametrize("name", sorted(EXPECTED_CHECKS))
    def test_caught_with_the_designed_check_kind(self, zoo_result, name):
        caught, _ = zoo_result
        assert EXPECTED_CHECKS[name] in caught[name], (
            f"{name} was caught via {caught[name]}, but its designed "
            f"failure mode {EXPECTED_CHECKS[name]!r} never fired"
        )


class TestTms2Independence:
    """The TMS2 decision catches the zoo's two observation bugs on its own.

    ``broken-dirty-read`` trips the ``opacity-tms2`` check kind on the
    seed corpus, beside the §6.1 no-uncommitted-PULL check that files
    its designed ``opacity`` kind; ``broken-stale-pull`` has a
    deterministic chaos witness — an aborted view no serialization
    justifies — that TMS2 rejects, exhaustively and through the
    commit-order witness alone, although the divergence check is what
    the zoo pins it to."""

    def test_dirty_read_caught_by_tms2_check_kind(self, corpus):
        tms2_hits = []
        for entry in corpus:
            run = run_entry(entry, "broken-dirty-read")
            if "opacity-tms2" in run.failure_checks:
                tms2_hits.append(entry.name)
        assert tms2_hits, (
            "broken-dirty-read no longer trips the TMS2 peer anywhere on "
            "the seed corpus"
        )

    def test_stale_pull_caught_by_tms2_only(self):
        from repro.checking.tms2 import decide_history_opaque_tms2
        from repro.faults.conformance import chaos_setup
        from repro.faults.plan import FaultInjector, FaultPlan
        from repro.runtime.harness import run_experiment
        from repro.runtime.scheduler import make_scheduler
        from repro.runtime.workload import WorkloadConfig

        config = WorkloadConfig(
            transactions=3, ops_per_tx=3, keys=2, read_ratio=0.5, seed=6
        )
        _, spec, programs = chaos_setup("tl2", config, "map")
        algorithm = BROKEN_ALGORITHMS["broken-stale-pull"]()
        injector = FaultInjector(
            FaultPlan.generate(6, events=3, jobs=len(programs))
        )
        result = run_experiment(
            algorithm,
            spec,
            programs,
            concurrency=len(programs),
            scheduler=make_scheduler("nemesis", 6),
            seed=6,
            verify=False,
            compact=False,
            max_retries=12,
            injector=injector,
        )
        history = result.runtime.history
        exhaustive = decide_history_opaque_tms2(spec, history)
        assert exhaustive.exhaustive and exhaustive.violations, (
            "the stale pull's inconsistent aborted view must be rejected "
            "by the TMS2 reduction"
        )
        assert decide_history_opaque_tms2(
            spec, history, max_exhaustive=0
        ).violations


class TestRealStrategiesStayGreen:
    @pytest.mark.parametrize("strategy", enabled_strategies())
    def test_seed_corpus_is_green(self, corpus, strategy):
        for entry in corpus:
            run = run_entry(entry, strategy)
            assert run.ok, (
                f"real strategy {strategy} failed on {entry.name}: "
                f"{[(f.check, f.detail) for f in run.failures]}"
            )
