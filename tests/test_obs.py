"""The observability layer: tracer semantics, exporters, and wiring.

Three contracts matter most:

1. the disabled path records *nothing* and does not perturb results —
   a harness run with the default :data:`NULL_TRACER` must produce the
   exact same output as one with a :class:`RecordingTracer`;
2. the JSONL export round-trips losslessly;
3. the Chrome export is schema-valid ``trace_event`` JSON.
"""

import json

import pytest

from repro.core import Machine, call, tx
from repro.core.errors import CriterionViolation
from repro.obs import (
    CAT_CRITERION,
    CAT_MC,
    CAT_RULE,
    CAT_SCHED,
    CAT_TX,
    NULL_TRACER,
    CounterMetric,
    HistogramMetric,
    MetricsRegistry,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    events_from_jsonl,
    percentile_nearest_rank,
    read_jsonl,
    summary_table,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.checking import explore
from repro.checking.model_checker import ExploreOptions
from repro.runtime import WorkloadConfig, make_workload, run_experiment
from repro.specs import CounterSpec, MemorySpec
from repro.tm import TL2TM


def small_run(tracer):
    config = WorkloadConfig(transactions=12, ops_per_tx=3, keys=3,
                            read_ratio=0.5, seed=7)
    return run_experiment(
        TL2TM(), MemorySpec(), make_workload("readwrite", config),
        concurrency=4, seed=7, tracer=tracer,
    )


class TestNullTracer:
    def test_disabled_and_silent(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.instant("x", CAT_RULE)
        tracer.span("x", CAT_RULE, tracer.now())
        tracer.counter("x", CAT_RULE, {"v": 1.0})
        tracer.count("x")
        # No state to inspect — the point is none of the above raises or
        # accumulates anything.
        assert not hasattr(tracer, "events")

    def test_shared_singleton_is_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_harness_results_identical_with_and_without_tracer(self):
        """Tracing must observe, never perturb: same seed, same outcome."""
        plain = small_run(NULL_TRACER)
        traced = small_run(RecordingTracer())
        assert plain.summary_row() == traced.summary_row()
        assert plain.rule_counts == traced.rule_counts
        assert [r.status for r in plain.runtime.history.records] == [
            r.status for r in traced.runtime.history.records
        ]

    def test_flight_recorder_observes_without_perturbing(self):
        """The always-on black box must be as inert as the null tracer
        result-wise: same seed, identical outcome."""
        from repro.obs.flight import FlightRecorder

        plain = small_run(NULL_TRACER)
        flighted = small_run(FlightRecorder())
        assert plain.summary_row() == flighted.summary_row()
        assert plain.rule_counts == flighted.rule_counts

    def test_flight_recorder_never_reads_the_clock(self, monkeypatch):
        """The structural half of the ≤5% overhead budget: a full run
        under the flight recorder performs *zero* ``perf_counter`` calls
        from the tracing layer (a RecordingTracer run makes thousands —
        that clock traffic was its single largest cost)."""
        import repro.obs.tracer as tracer_mod
        from repro.obs.flight import FlightRecorder

        calls = {"n": 0}
        real = tracer_mod.perf_counter

        def counting():
            calls["n"] += 1
            return real()

        monkeypatch.setattr(tracer_mod, "perf_counter", counting)
        flight = FlightRecorder()
        small_run(flight)
        assert calls["n"] == 0
        assert len(flight) > 0  # it recorded, it just never told time

        calls["n"] = 0
        small_run(RecordingTracer())
        assert calls["n"] > 0

    def test_flight_recorder_stays_inside_the_overhead_budget(self):
        """The arithmetic half of the ≤5% budget on a kvmap
        compare-style run: (per-event cost × events recorded) must be
        well under 5% of the untraced run time.  Enforced as the
        decomposition rather than direct A/B wall-clock — this
        container's scheduling noise (±13% between identical runs)
        cannot resolve a 5% delta, while both factors here are stable
        and the margin is ~25×."""
        import time as _time

        from repro.obs import CAT_RULE
        from repro.obs.flight import FlightRecorder
        from repro.runtime import make_workload
        from repro.specs import KVMapSpec

        config = WorkloadConfig(transactions=40, ops_per_tx=4, keys=4,
                                read_ratio=0.5, seed=11)
        programs = make_workload("map", config)

        def kvmap_run(tracer):
            start = _time.perf_counter()
            run_experiment(TL2TM(), KVMapSpec(), programs, concurrency=4,
                           seed=11, tracer=tracer)
            return _time.perf_counter() - start

        untraced = min(kvmap_run(NULL_TRACER) for _ in range(3))
        flight = FlightRecorder(capacity=None)
        kvmap_run(flight)
        events = len(flight)
        assert events > 0

        def per_event(n=100_000):
            recorder = FlightRecorder(capacity=4096)
            span, now = recorder.span, recorder.now
            start = _time.perf_counter()
            for _ in range(n):
                span("APP", CAT_RULE, now(), tid=1)
            return (_time.perf_counter() - start) / n

        cost = min(per_event() for _ in range(3))
        added = cost * events
        assert added <= 0.05 * untraced, (
            f"flight recording adds {added * 1e3:.2f}ms over a "
            f"{untraced * 1e3:.0f}ms untraced run "
            f"({events} events x {cost * 1e9:.0f}ns)"
        )


class TestMachineInstrumentation:
    def test_rule_spans_and_criterion_events(self):
        tracer = RecordingTracer()
        m, tid = Machine(MemorySpec(), tracer=tracer).spawn(
            tx(call("write", "x", 1))
        )
        m = m.app(tid)
        m = m.push(tid, m.thread(tid).local[0].op)
        m = m.cmt(tid)
        names = tracer.names()
        assert names["APP"] == 1 and names["PUSH"] == 1 and names["CMT"] == 1
        # Every traced rule application also records its criterion check.
        assert names["APP.check"] == 1
        assert names["CMT.check"] == 1
        for event in tracer.events_in(CAT_RULE):
            assert event.ph == "X" and event.args["ok"] is True
            assert event.tid == tid

    def test_violation_recorded_with_criterion(self):
        tracer = RecordingTracer()
        m, tid = Machine(MemorySpec(), tracer=tracer).spawn(
            tx(call("write", "x", 1))
        )
        m = m.app(tid)
        with pytest.raises(CriterionViolation):
            m.cmt(tid)  # un-pushed write: CMT criterion fails
        checks = [e for e in tracer.events_in(CAT_CRITERION)
                  if e.args.get("ok") is False]
        assert len(checks) == 1
        assert checks[0].name == "CMT.check"
        assert "criterion" in checks[0].args

    def test_harness_emits_all_layers(self):
        tracer = RecordingTracer()
        small_run(tracer)
        cats = {event.cat for event in tracer.events}
        assert {CAT_RULE, CAT_CRITERION, CAT_TX, CAT_SCHED} <= cats
        names = tracer.names()
        assert names["tx.commit"] >= 1
        assert names["quantum"] >= 1
        assert tracer.counts.get("sched.quanta", 0) >= 1

    def test_conflict_graph_drives_the_commutes_memo_counters(self):
        """Exploration consults only the denotation and left-mover memos
        (the kernel perf tier gates those); the ``mover.commutes`` memo's
        consumer is the conflict-graph oracle."""
        from repro.core.conflictgraph import conflict_serializable
        from repro.specs import get_spec
        from repro.tm import ALL_ALGORITHMS

        tracer = RecordingTracer()
        config = WorkloadConfig(transactions=12, ops_per_tx=3, keys=4,
                                read_ratio=0.5, seed=7)
        spec = get_spec("counter")
        result = run_experiment(
            ALL_ALGORITHMS["boosting"](), spec,
            make_workload("counter", config),
            concurrency=3, seed=7, tracer=tracer,
        )
        serializable, _, _ = conflict_serializable(
            spec, result.runtime.history, result.runtime.machine
        )
        assert serializable
        hits = tracer.counts.get("mover.commutes.hit", 0)
        misses = tracer.counts.get("mover.commutes.miss", 0)
        assert hits + misses > 0


class TestModelCheckerInstrumentation:
    def test_explore_emits_stats(self):
        tracer = RecordingTracer()
        report = explore(
            CounterSpec(),
            [tx(call("inc")), tx(call("inc"))],
            ExploreOptions(max_states=50_000, tracer=tracer,
                           trace_stats_every=10),
        )
        assert report.ok
        mc_events = tracer.events_in(CAT_MC)
        assert any(e.name == "mc.explore" for e in mc_events)
        done = [e for e in mc_events if e.name == "mc.done"]
        assert len(done) == 1
        assert done[0].args["states"] == report.states
        assert done[0].args["dedup_hits"] == report.dedup_hits
        assert report.max_depth > 0
        assert report.peak_frontier > 0


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        tracer = RecordingTracer()
        small_run(tracer)
        path = str(tmp_path / "run.jsonl")
        written = write_jsonl(tracer, path)
        assert written == len(tracer.events) > 0
        back = read_jsonl(path)
        assert len(back) == written
        for original, loaded in zip(tracer.events, back):
            assert loaded.name == original.name
            assert loaded.cat == original.cat
            assert loaded.ph == original.ph
            assert loaded.tid == original.tid
            assert loaded.ts == pytest.approx(original.ts)

    def test_events_from_jsonl_skips_blank_lines(self):
        lines = ['{"name": "a", "cat": "rule", "ph": "i", "ts": 1.0}', "", "  "]
        events = events_from_jsonl(lines)
        assert len(events) == 1 and events[0].name == "a"


class TestChromeExport:
    def test_schema(self, tmp_path):
        tracer = RecordingTracer()
        small_run(tracer)
        path = str(tmp_path / "run.json")
        write_chrome_trace(tracer, path)
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert "traceEvents" in doc
        events = doc["traceEvents"]
        assert events
        for event in events:
            for key in ("name", "cat", "ph", "ts", "pid", "tid"):
                assert key in event, f"missing {key}: {event}"
            assert event["ph"] in {"X", "i", "C"}
            if event["ph"] == "X":
                assert "dur" in event
            if event["ph"] == "i":
                assert event["s"] == "t"
            if event["ph"] == "C":
                assert all(isinstance(v, (int, float))
                           for v in event.get("args", {}).values())

    def test_counter_args_filtered_to_numeric(self):
        event = TraceEvent("c", "runtime", "C", 0.0,
                           args={"value": 3.0, "label": "not-a-number"})
        doc = to_chrome_trace([event])
        assert doc["traceEvents"][0]["args"] == {"value": 3.0}


class TestSummaryTable:
    def test_mentions_rules_and_counts(self):
        tracer = RecordingTracer()
        small_run(tracer)
        table = summary_table(tracer)
        assert "APP" in table and "quantum" in table
        assert "count" in table and "mean_us" in table


class TestMetricsPrimitives:
    def test_percentile_edge_cases(self):
        assert percentile_nearest_rank([], 0.5) == 0.0
        assert percentile_nearest_rank([4.0], 0.01) == 4.0
        assert percentile_nearest_rank([4.0], 0.99) == 4.0
        assert percentile_nearest_rank([1.0, 2.0], 0.50) == 1.0
        assert percentile_nearest_rank([1.0, 2.0], 0.51) == 2.0

    def test_registry(self):
        registry = MetricsRegistry()
        registry.counter("commits").inc()
        registry.counter("commits").inc(2)
        registry.histogram("latency").observe(10.0)
        registry.histogram("latency").observe(20.0)
        snap = registry.snapshot()
        assert snap["commits"] == {"value": 3.0}
        assert snap["latency"]["count"] == 2
        assert snap["latency"]["p50"] == 10.0

    def test_histogram_empty(self):
        h = HistogramMetric("empty")
        assert h.count == 0 and h.mean == 0.0
        assert h.percentile(0.95) == 0.0

    def test_counter_metric(self):
        c = CounterMetric("c")
        c.inc()
        assert c.value == 1
