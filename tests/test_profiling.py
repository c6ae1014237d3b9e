"""The deterministic profiler (ISSUE 6): nesting reconstruction,
collapsed-stack export, and the logical-attribution determinism
contracts (repeat and tracing invariance for model checking, seed
invariance for chaos runs).
"""

from repro.checking import explore
from repro.checking.model_checker import ExploreOptions
from repro.cli import SCOPES
from repro.faults.conformance import chaos_setup, run_chaos
from repro.faults.plan import FaultPlan
from repro.obs import Profile, RecordingTracer
from repro.obs.profiling import logical_profile, profile_report_table
from repro.obs.tracer import CAT_RULE, TraceEvent
from repro.runtime import WorkloadConfig, make_workload, run_experiment
from repro.specs import MemorySpec
from repro.tm import TL2TM

CFG = WorkloadConfig(transactions=4, ops_per_tx=3, keys=3, read_ratio=0.5, seed=5)


def span(name, ts, dur, tid=0, pid=0):
    return TraceEvent(name, CAT_RULE, "X", ts, dur=dur, tid=tid, pid=pid)


class TestNesting:
    def test_containment_builds_the_calling_tree(self):
        """Children are contained in their parent's interval; tracers
        record spans at *end* time, so the child precedes the parent in
        emission order — the sweep must not care."""
        profile = Profile()
        profile.add([
            span("child", ts=2.0, dur=3.0),
            span("parent", ts=0.0, dur=10.0),
            span("late", ts=6.0, dur=2.0),
        ])
        rows = profile.rows()
        assert rows[("parent",)] == (1, 10.0, 5.0)  # 10 - 3 - 2 self
        assert rows[("parent", "child")] == (1, 3.0, 3.0)
        assert rows[("parent", "late")] == (1, 2.0, 2.0)

    def test_siblings_do_not_nest(self):
        profile = Profile()
        profile.add([span("a", 0.0, 2.0), span("b", 3.0, 2.0)])
        assert set(profile.rows()) == {("a",), ("b",)}

    def test_tracks_are_independent(self):
        """Same instant, different (pid, tid): no cross-track nesting."""
        profile = Profile()
        profile.add([
            span("outer", 0.0, 10.0, tid=1),
            span("other", 2.0, 3.0, tid=2),
        ])
        assert set(profile.rows()) == {("outer",), ("other",)}

    def test_counts_merge_across_streams(self):
        profile = Profile()
        profile.add([span("a", 0.0, 2.0)])
        profile.add([span("a", 0.0, 4.0)])
        assert profile.rows()[("a",)] == (2, 6.0, 6.0)

    def test_empty(self):
        assert Profile().empty
        assert Profile().to_collapsed() == ""


class TestExports:
    def _profile(self):
        profile = Profile()
        profile.add([
            span("child", 2.0, 3.0),
            span("parent", 0.0, 10.0),
        ])
        return profile

    def test_collapsed_stack_format(self):
        lines = self._profile().to_collapsed().splitlines()
        assert "parent 7" in lines
        assert "parent;child 3" in lines

    def test_write_collapsed(self, tmp_path):
        path = str(tmp_path / "flame.txt")
        count = self._profile().write_collapsed(path)
        assert count == 2
        with open(path, encoding="utf-8") as handle:
            assert handle.read().endswith("\n")

    def test_top_table_ranked_by_self_time(self):
        table = self._profile().top_table()
        assert "self_us" in table and "path" in table
        body = table.splitlines()[2:]
        assert body[0].endswith("parent")
        assert body[1].endswith("parent;child")

    def test_profile_report_table(self):
        text = profile_report_table([("scope", {"rule.APP": 3, "mc.states": 7})])
        assert "[scope]" in text
        assert "rule.APP" in text and "mc.states" in text


class TestLogicalDeterminism:
    """The attribution half that is a *pure function* of the seeded run:
    identical across repeats and with or without tracing."""

    def test_sequential_explorer_attributes_the_same_rules(self):
        """A traced rerun (warm intern tables and mover memos, a span per
        rule) attributes exactly what the untraced run does, and its rule
        spans are the report's rule counts (END is counted, not traced)."""
        spec_cls, programs = SCOPES["mem-ww"]
        plain = logical_profile(explore(spec_cls(), programs, ExploreOptions()))
        tracer = RecordingTracer()
        traced = logical_profile(explore(
            spec_cls(), programs,
            ExploreOptions(tracer=tracer, trace_rules=True),
        ))
        assert plain == traced
        spans = Profile()
        spans.add_tracer(tracer)
        assert {
            f"rule.{name}": count
            for (cat, name), count in spans.step_counts().items()
            if cat == CAT_RULE
        } == {
            k: v for k, v in traced.items()
            if k.startswith("rule.") and k != "rule.END"
        }

    def test_repeated_seeded_chaos_runs_attribute_identically(self):
        plan = FaultPlan.generate(23, events=5, jobs=CFG.transactions)
        counts = []
        for _ in range(2):
            algorithm, spec, programs = chaos_setup("dependent", CFG)
            profile = Profile()
            outcome = run_chaos(
                algorithm, spec, programs, plan, seed=23, profile=profile,
            )
            assert outcome.ok
            assert not profile.empty
            counts.append(profile.step_counts())
        assert counts[0] == counts[1]

    def test_repeated_seeded_harness_runs_attribute_identically(self):
        counts = []
        for _ in range(2):
            tracer = RecordingTracer()
            run_experiment(
                TL2TM(), MemorySpec(), make_workload("readwrite", CFG),
                concurrency=4, seed=7, tracer=tracer,
            )
            profile = Profile()
            profile.add_tracer(tracer)
            counts.append(profile.step_counts())
        assert counts[0] == counts[1]
        assert any(name == "APP" for _cat, name in counts[0])


class TestLogicalProfileShape:
    def test_rule_counts_and_totals(self):
        spec_cls, programs = SCOPES["counter"]
        report = explore(spec_cls(), programs, ExploreOptions())
        attribution = logical_profile(report)
        assert attribution["mc.states"] == report.states
        assert attribution["por.ample_hits"] == report.ample_hits
        for rule, count in report.rule_counts.items():
            assert attribution[f"rule.{rule}"] == count

    def test_por_off_omits_por_keys(self):
        spec_cls, programs = SCOPES["mem-ww"]
        report = explore(spec_cls(), programs, ExploreOptions(por=False))
        assert not any(k.startswith("por.") for k in logical_profile(report))
