"""The observability layer: tracer semantics, exporters, and wiring.

Three contracts matter most:

1. the disabled path records *nothing* and does not perturb results —
   a harness run with the default :data:`NULL_TRACER` must produce the
   exact same output as one with a :class:`RecordingTracer`;
2. the JSONL export round-trips losslessly;
3. the Chrome export is schema-valid ``trace_event`` JSON.
"""

import collections
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
from repro.tm import ALL_ALGORITHMS, TL2TM


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
        and the margin is ~2.5× (a rule span's ``op`` lookup and triple
        cost ~0.5 µs of its ~0.65 µs)."""
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

        machine, tid = Machine(KVMapSpec()).spawn(tx(call("put", "k", 1)))
        machine = machine.app(tid)

        def per_event(n=100_000):
            # A span as the machine's rule wrapper records an APP: the ok
            # flag, the new entry's lookup and its (method, args, ret).
            recorder = FlightRecorder(capacity=4096)
            span, now = recorder.span, recorder.now
            start = _time.perf_counter()
            for _ in range(n):
                args = {"ok": True}
                op = machine.thread(tid).local[-1].op
                args["op"] = (op.method, op.args, op.ret)
                span("APP", CAT_RULE, now(), tid=tid, args=args)
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


def passing_rule_spans(source):
    """The ``rule`` spans of rules that were applied, counted by name."""
    return collections.Counter(
        event.name for event in source.events_in(CAT_RULE) if event.args["ok"]
    )


def strategy_run(name, seed, tracer):
    """One seeded run of strategy ``name``: ``set`` churn, except hybrid,
    which needs the ``multiobject`` workload's product spec."""
    from repro.specs import KVMapSpec, ProductSpec, SetSpec
    from repro.tm import HybridTM

    config = WorkloadConfig(transactions=24, ops_per_tx=4, keys=4,
                            read_ratio=0.5, seed=seed)
    if name == "hybrid":
        spec = ProductSpec({"table": KVMapSpec(), "tally": CounterSpec(),
                            "cache": MemorySpec()})
        algorithm = HybridTM(htm_components=frozenset({"tally", "cache"}))
        programs = make_workload("multiobject", config)
    else:
        spec, algorithm = SetSpec(), ALL_ALGORITHMS[name]()
        programs = make_workload("set", config)
    return run_experiment(algorithm, spec, programs, concurrency=4,
                          seed=seed, tracer=tracer)


class TestRuleTrace:
    """The tracer's ``rule`` spans are the rule trace: one passing span per
    rule applied to a machine, carrying the operation it moved."""

    def test_passing_spans_carry_the_operation_they_moved(self):
        tracer = RecordingTracer()
        m = Machine(MemorySpec(), tracer=tracer)
        m, t0 = m.spawn(tx(call("write", "x", 1)))
        m, t1 = m.spawn(tx(call("read", "x")))
        m = m.app(t0)
        write = m.thread(t0).local[0].op
        m = m.push(t0, write)
        m = m.pull(t1, write)
        m = m.unpull(t1, write)
        with pytest.raises(CriterionViolation):
            m.cmt(t1)  # the read was never APPed: no method-free path
        m = m.unpush(t0, write)
        m = m.unapp(t0)
        m = m.app(t0)
        m = m.push(t0, m.thread(t0).local[0].op)
        m = m.cmt(t0)
        spans = [(e.name, e.tid, e.args) for e in tracer.events_in(CAT_RULE)]
        moved = ("write", ("x", 1), None)
        assert spans == [
            ("APP", t0, {"ok": True, "op": moved}),
            ("PUSH", t0, {"ok": True, "op": moved}),
            ("PULL", t1, {"ok": True, "op": moved}),
            ("UNPULL", t1, {"ok": True, "op": moved}),
            ("CMT", t1, {"ok": False}),
            ("UNPUSH", t0, {"ok": True, "op": moved}),
            ("UNAPP", t0, {"ok": True, "op": moved}),
            ("APP", t0, {"ok": True, "op": moved}),
            ("PUSH", t0, {"ok": True, "op": moved}),
            ("CMT", t0, {"ok": True}),
        ]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", sorted(ALL_ALGORITHMS))
    def test_rule_spans_agree_with_rule_counts(self, name, seed):
        """Commit validation checks PUSH criteria without applying PUSH,
        so the trace holds exactly the rules the runtime counted."""
        tracer = RecordingTracer()
        result = strategy_run(name, seed, tracer)
        assert passing_rule_spans(tracer) == result.rule_counts

    def test_validation_checks_leave_criterion_instants(self):
        """A validation failure still reaches fuzz coverage as a
        ``PUSH.check`` instant, with no ``PUSH`` span beside it."""
        tracer = RecordingTracer()
        strategy_run("tl2", 1, tracer)
        refused = [e for e in tracer.events_in(CAT_CRITERION)
                   if e.name == "PUSH.check" and not e.args["ok"]]
        assert refused and all(e.args["criterion"] for e in refused)
        assert not [e for e in tracer.events_in(CAT_RULE)
                    if e.name == "PUSH" and not e.args["ok"]]

    def test_figure7_table_reads_a_flight_dump(self, tmp_path):
        from repro.obs import format_figure7
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder(capacity=None)
        small_run(flight)
        path = str(tmp_path / "dump.jsonl")
        flight.dump(path, reason="test")
        table = format_figure7(flight)
        assert format_figure7(read_jsonl(path)) == table
        lines = table.splitlines()
        assert len(lines) == sum(passing_rule_spans(flight).values())
        assert any("(write(('k', " in line for line in lines)


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

    def test_por_drives_the_commutes_memo_counters(self):
        """Exploration's rule criteria consult the denotation and
        left-mover memos (the kernel perf tier gates those); the
        ``mover.commutes`` memo's consumer is the POR reducer's both-mover
        check."""
        tracer = RecordingTracer()
        report = explore(
            CounterSpec(),
            [tx(call("inc"), call("get")), tx(call("inc"))],
            ExploreOptions(max_states=50_000, tracer=tracer, trace_rules=True,
                           por=True),
        )
        assert report.ok
        assert tracer.counts.get("mover.commutes.miss", 0) > 0


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
