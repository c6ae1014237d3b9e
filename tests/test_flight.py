"""The flight recorder (ISSUE 6): the bounded black box, its auto-dump
wiring, and the replay-match contract.

The headline property: a failing chaos run or model-check verdict ships
a JSONL dump whose events *replay-match* what a full
:class:`~repro.obs.tracer.RecordingTracer` would have captured on the
same seeded run — :func:`~repro.obs.flight.tail_signature` equality,
which ignores only wall-clock fields (the flight recorder deliberately
never reads a clock) and counter-flush timing.
"""

import json
import os

import pytest

from repro.checking import explore
from repro.checking.model_checker import ExploreOptions
from repro.core.language import call, tx
from repro.faults.conformance import run_chaos
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.obs import NULL_TRACER, RecordingTracer, read_jsonl
from repro.obs.flight import FlightRecorder, maybe_dump, tail_signature
from repro.obs.tracer import CAT_RULE, CAT_RUNTIME
from repro.runtime import WorkloadConfig, make_workload
from repro.specs import CounterSpec, MemorySpec
from repro.tm.broken import BrokenCrashTM

CFG = WorkloadConfig(transactions=4, ops_per_tx=3, keys=3, read_ratio=0.5, seed=5)

#: the known-bug fixture from tests/test_faults.py: BrokenCrashTM loses
#: its rollback log on an injected commit-crash and dies with MS_END
FAILING_PLAN = FaultPlan(
    seed=31,
    events=(
        FaultEvent(FaultKind.LOCK_DENY, count=2),
        FaultEvent(FaultKind.STALL, job=1, duration=3),
        FaultEvent(FaultKind.CRASH_COMMIT, job=2, count=2),
        FaultEvent(FaultKind.FORCED_ABORT, job=0, after=2),
    ),
)

#: Lemma 5.12's I_localOrder scope: gray checks off, invariant breaks —
#: a deterministic failing model-check verdict
GRAY_OFF_PROGRAMS = [tx(call("get"), call("dec"))]


def failing_chaos(tracer=NULL_TRACER, flight_dir=None):
    programs = make_workload("readwrite", CFG)
    return run_chaos(
        BrokenCrashTM(), MemorySpec(), programs, FAILING_PLAN, seed=31,
        scheduler="nemesis", tracer=tracer, flight_dir=flight_dir,
    )


class TestRing:
    def test_bounded_ring_keeps_the_tail(self):
        recorder = FlightRecorder(capacity=8)
        for i in range(20):
            recorder.instant(f"e{i}", CAT_RULE)
        assert len(recorder) == 8
        assert recorder.truncated
        assert [e.name for e in recorder.events] == [f"e{i}" for i in range(12, 20)]

    def test_unbounded_ring_never_truncates(self):
        recorder = FlightRecorder(capacity=None)
        for i in range(20):
            recorder.instant(f"e{i}", CAT_RULE)
        assert len(recorder) == 20
        assert not recorder.truncated

    def test_clock_free(self):
        """The design point that buys the overhead budget: ``now()`` is
        0.0 and materialised timestamps are ring indices, not time."""
        recorder = FlightRecorder()
        assert recorder.now() == 0.0
        recorder.span("a", CAT_RULE, recorder.now())
        recorder.instant("b", CAT_RULE)
        ts = [e.ts for e in recorder.events]
        assert ts == [0.0, 1.0]
        assert all(e.dur == 0 for e in recorder.events)

    def test_flush_counts_materialises_aggregates(self):
        recorder = FlightRecorder()
        recorder.count("sched.quanta", 3)
        recorder.count("sched.quanta")
        recorder.flush_counts()
        counters = [e for e in recorder.events if e.ph == "C"]
        assert len(counters) == 1
        assert counters[0].args == {"value": 4.0}
        assert recorder.counts == {}

    def test_tail_window(self):
        recorder = FlightRecorder()
        for i in range(6):
            recorder.instant(f"e{i}", CAT_RULE)
        assert [e.name for e in recorder.tail(2)] == ["e4", "e5"]
        assert len(recorder.tail()) == 6


class TestDump:
    def test_dump_format(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        for i in range(6):
            recorder.instant(f"e{i}", CAT_RULE, args={"i": i})
        recorder.count("sched.quanta", 2)
        path = str(tmp_path / "box.jsonl")
        written = recorder.dump(path, reason="test", meta={"seed": 9})
        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        # Line 1 is the meta header; then every ring event in order.
        assert lines[0]["name"] == "flight.dump"
        assert lines[0]["args"]["reason"] == "test"
        assert lines[0]["args"]["seed"] == 9
        assert lines[0]["args"]["truncated"] is True
        assert written == len(lines) - 1
        loaded = read_jsonl(path)
        assert tail_signature(loaded) == tail_signature(recorder)

    def test_maybe_dump_is_a_noop_without_a_destination(self, tmp_path):
        recorder = FlightRecorder()  # auto_dump_dir=None
        recorder.instant("e", CAT_RULE)
        assert maybe_dump(recorder, label="x", reason="y") is None
        # Non-flight tracers have no .dump — silently skipped.
        assert maybe_dump(RecordingTracer(), label="x", reason="y") is None
        assert maybe_dump(NULL_TRACER, label="x", reason="y") is None

    def test_maybe_dump_names_are_deterministic_with_collision_suffix(
        self, tmp_path
    ):
        recorder = FlightRecorder(auto_dump_dir=str(tmp_path))
        recorder.instant("e", CAT_RULE)
        first = maybe_dump(recorder, label="run one", reason="gate")
        second = maybe_dump(recorder, label="run one", reason="gate")
        assert os.path.basename(first) == "run-one-gate.jsonl"
        assert os.path.basename(second) == "run-one-gate-1.jsonl"

    def test_directory_argument_overrides_auto_dump_dir(self, tmp_path):
        recorder = FlightRecorder(auto_dump_dir=str(tmp_path / "a"))
        recorder.instant("e", CAT_RULE)
        path = maybe_dump(
            recorder, label="r", reason="x", directory=str(tmp_path / "b")
        )
        assert os.path.dirname(path) == str(tmp_path / "b")


class TestChaosReplayMatch:
    def test_passing_run_writes_no_dump(self, tmp_path):
        from repro.faults.conformance import chaos_setup
        from repro.tm import TL2TM

        algorithm, spec, programs = chaos_setup("tl2", CFG)
        plan = FaultPlan.generate(17, events=4, jobs=CFG.transactions)
        outcome = run_chaos(
            algorithm, spec, programs, plan, seed=17,
            flight_dir=str(tmp_path),
        )
        assert outcome.ok
        assert outcome.flight_dump is None
        assert list(tmp_path.iterdir()) == []

    def test_failing_run_dump_replay_matches_a_recording_capture(
        self, tmp_path
    ):
        """The acceptance contract: the auto-dumped black box carries
        exactly the events a RecordingTracer sees on the same seeded
        run (modulo wall-clock and counter-flush timing)."""
        flighted = failing_chaos(flight_dir=str(tmp_path))
        assert not flighted.ok
        assert flighted.flight_dump is not None
        loaded = read_jsonl(flighted.flight_dump)
        assert loaded[0].name == "flight.dump"
        assert loaded[0].args["reason"] == "exception"
        assert loaded[0].args["seed"] == 31

        recording = RecordingTracer()
        rerun = failing_chaos(tracer=recording)
        assert not rerun.ok
        dumped = tail_signature(loaded)
        assert dumped  # a non-trivial window, not an empty match
        assert dumped == tail_signature(recording, n=len(dumped))

    def test_failure_metadata_reaches_the_header(self, tmp_path):
        flighted = failing_chaos(flight_dir=str(tmp_path))
        header = read_jsonl(flighted.flight_dump)[0]
        assert "MS_END" in header.args["error"]


class TestModelcheckReplayMatch:
    OPTIONS = dict(check_gray_criteria=False, trace_rules=True)

    def test_failed_verdict_dump_replay_matches(self, tmp_path):
        flight = FlightRecorder(auto_dump_dir=str(tmp_path))
        report = explore(
            CounterSpec(), GRAY_OFF_PROGRAMS,
            ExploreOptions(tracer=flight, **self.OPTIONS),
        )
        assert not report.ok  # I_localOrder breaks with gray checks off
        assert report.flight_dump is not None
        loaded = read_jsonl(report.flight_dump)
        assert loaded[0].args["reason"] == "violation"
        assert loaded[0].args["violations"] == len(report.invariant_violations)

        recording = RecordingTracer()
        rerun = explore(
            CounterSpec(), GRAY_OFF_PROGRAMS,
            ExploreOptions(tracer=recording, **self.OPTIONS),
        )
        assert not rerun.ok
        dumped = tail_signature(loaded)
        assert dumped
        assert dumped == tail_signature(recording, n=len(dumped))

    def test_clean_verdict_writes_no_dump(self, tmp_path):
        flight = FlightRecorder(auto_dump_dir=str(tmp_path))
        report = explore(
            CounterSpec(), GRAY_OFF_PROGRAMS, ExploreOptions(tracer=flight)
        )
        assert report.ok
        assert report.flight_dump is None
        assert list(tmp_path.iterdir()) == []


class TestSignature:
    def test_ignores_counters_and_meta_events(self):
        recorder = FlightRecorder()
        recorder.instant("a", CAT_RULE)
        recorder.counter("mc.explore", CAT_RUNTIME, {"states": 5.0})
        recorder.instant("flight.dump", CAT_RUNTIME)
        assert len(tail_signature(recorder)) == 1

    def test_accepts_tracers_and_event_lists(self):
        recorder = FlightRecorder()
        recorder.instant("a", CAT_RULE, args={"k": 1})
        assert tail_signature(recorder) == tail_signature(recorder.events)
