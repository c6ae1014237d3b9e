"""The small-scope model checker — Theorem 5.17 executed exhaustively."""

import gc

import pytest

from repro.checking import check_serializability_small_scope, explore
from repro.checking.model_checker import ExplorationReport, ExploreOptions
from repro.cli import SCOPES
from repro.core.errors import SerializabilityViolation
from repro.core.language import call, choice, tx
from repro.specs import CounterSpec, KVMapSpec, MemorySpec, SetSpec


class TestExplore:
    def test_single_writer(self):
        report = explore(MemorySpec(), [tx(call("write", "x", 1))])
        assert report.ok
        assert report.final_states >= 1
        assert report.rule_counts["APP"] > 0
        assert report.rule_counts["CMT"] > 0

    def test_conflicting_writers_full_model(self):
        report = explore(
            MemorySpec(),
            [tx(call("write", "x", 1)), tx(call("write", "x", 2))],
        )
        assert report.ok
        # backward rules were genuinely exercised:
        assert report.rule_counts.get("UNAPP", 0) > 0
        assert report.rule_counts.get("UNPUSH", 0) > 0
        assert report.rule_counts.get("PULL", 0) > 0

    def test_write_read_vs_writer(self):
        report = explore(
            MemorySpec(),
            [tx(call("write", "x", 1), call("read", "x")), tx(call("write", "x", 2))],
        )
        assert report.ok
        assert report.states > 100  # nontrivial space

    def test_counter_commuting(self):
        report = explore(
            CounterSpec(),
            [tx(call("inc"), call("inc")), tx(call("inc"))],
        )
        assert report.ok

    def test_nondeterministic_branching(self):
        report = explore(
            SetSpec(),
            [
                tx(call("add", "a"), choice(call("add", "b"), call("remove", "a"))),
                tx(call("add", "a")),
            ],
            ExploreOptions(pull_policy="committed"),
        )
        assert report.ok
        assert report.final_states > 2  # branch outcomes distinguish finals

    def test_pull_policies_shrink_space(self):
        programs = [
            tx(call("write", "x", 1), call("read", "x")),
            tx(call("write", "x", 2)),
        ]
        full = explore(MemorySpec(), programs, ExploreOptions(pull_policy="all"))
        committed = explore(
            MemorySpec(), programs, ExploreOptions(pull_policy="committed")
        )
        none = explore(MemorySpec(), programs, ExploreOptions(pull_policy="none"))
        assert none.states <= committed.states <= full.states
        assert full.ok and committed.ok and none.ok

    def test_committed_pull_policy(self):
        programs = [tx(call("write", "x", 1)), tx(call("read", "x"))]
        report = explore(
            MemorySpec(), programs, ExploreOptions(pull_policy="committed")
        )
        assert report.ok

    def test_max_states_guard(self):
        with pytest.raises(MemoryError):
            explore(
                MemorySpec(),
                [tx(call("write", "x", 1), call("read", "x")),
                 tx(call("write", "x", 2))],
                ExploreOptions(max_states=10),
            )

    def test_no_backward_rules_option(self):
        report = explore(
            MemorySpec(),
            [tx(call("write", "x", 1)), tx(call("write", "x", 2))],
            ExploreOptions(include_backward=False),
        )
        assert report.ok
        assert "UNAPP" not in report.rule_counts
        assert "UNPUSH" not in report.rule_counts

    def test_cmtpres_on_small_scope(self):
        report = explore(
            MemorySpec(),
            [tx(call("write", "x", 1)), tx(call("write", "x", 2))],
            ExploreOptions(check_cmtpres=True),
        )
        assert report.ok

    def test_every_state_cover(self):
        report = explore(
            CounterSpec(),
            [tx(call("inc")), tx(call("inc"))],
            ExploreOptions(check_every_state_cover=True),
        )
        assert report.ok


class TestCollectorPause:
    """``explore`` pauses automatic cyclic collection for the whole call
    and hands the caller's thresholds back on every exit."""

    PROGRAMS = [tx(call("write", "x", 1), call("read", "x")),
                tx(call("write", "x", 2))]

    def test_explore_runs_no_cyclic_collection(self):
        spec_cls, programs = SCOPES["counter"]
        spec = spec_cls()
        started = []

        def hook(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()  # nothing already due is charged to the explore
        gc.callbacks.append(hook)
        try:
            report = explore(spec, programs, ExploreOptions(por=False))
        finally:
            gc.callbacks.remove(hook)
        assert report.states > 700  # enough allocation to trigger one
        assert started == []

    def test_restores_a_custom_threshold_after_return_and_memory_error(self):
        saved = gc.get_threshold()
        try:
            gc.set_threshold(500, 7, 9)
            explore(MemorySpec(), self.PROGRAMS)
            assert gc.get_threshold() == (500, 7, 9)
            with pytest.raises(MemoryError):
                explore(MemorySpec(), self.PROGRAMS,
                        ExploreOptions(max_states=10))
            assert gc.get_threshold() == (500, 7, 9)
        finally:
            gc.set_threshold(*saved)

    @pytest.mark.parametrize("name,por", [
        (name, por)
        for name in SCOPES
        for por in ((True, False) if name != "counter-sym" else (True,))
    ])
    def test_exploration_leaves_no_cyclic_garbage(self, name, por):
        """Pausing the collector costs no memory only if the exploration
        makes no cycles for it to find: everything it drops, refcounting
        frees at once."""
        spec_cls, programs = SCOPES[name]
        spec = spec_cls()
        gc.collect()
        report = explore(spec, programs, ExploreOptions(por=por))
        assert report.ok
        assert gc.collect() == 0


class TestCheckSerializabilitySmallScope:
    def test_passes(self):
        report = check_serializability_small_scope(
            KVMapSpec(),
            [tx(call("put", "k1", 1)), tx(call("put", "k2", 2))],
        )
        assert isinstance(report, ExplorationReport)
        assert report.ok

    def test_dependent_pull_scenarios_included(self):
        # full pull policy lets a transaction read uncommitted effects and
        # the theorem still holds on every interleaving.
        report = check_serializability_small_scope(
            MemorySpec(),
            [tx(call("write", "x", 1)), tx(call("read", "x"))],
        )
        assert report.ok
        assert report.rule_counts.get("PULL", 0) > 0

    def test_raises_on_forged_violation(self):
        # Sanity check of the checker itself: a spec whose mover oracle
        # lies (claims everything commutes) admits non-serializable
        # interleavings, which the atomic-cover check must catch.
        class LyingMemory(MemorySpec):
            def left_mover(self, op1, op2):
                return True

            def commutes(self, op1, op2):
                return True

        # the classic write-skew shape: both transactions read 0 and write
        # the other's location — admitted only if movers lie.
        with pytest.raises(SerializabilityViolation):
            check_serializability_small_scope(
                LyingMemory(),
                [tx(call("read", "x"), call("write", "y", 1)),
                 tx(call("read", "y"), call("write", "x", 1))],
                ExploreOptions(check_invariants=False, pull_policy="none"),
            )
