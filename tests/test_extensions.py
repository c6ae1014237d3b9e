"""Extensions beyond the core reproduction: checkpoints (§6.2), the rule
trace the tracer records, and the CLI."""

from repro.cli import main as cli_main
from repro.core import Machine, call, tx
from repro.obs import CAT_RULE, RecordingTracer, format_figure7
from repro.runtime import WorkloadConfig, make_workload, run_experiment
from repro.specs import KVMapSpec, MemorySpec
from repro.tm import CheckpointTM, TL2TM


class TestCheckpointTM:
    def test_commits_workload(self):
        config = WorkloadConfig(transactions=20, ops_per_tx=5, keys=4,
                                read_ratio=0.5, seed=1)
        algorithm = CheckpointTM(checkpoint_every=2)
        result = run_experiment(
            algorithm, MemorySpec(), make_workload("readwrite", config),
            concurrency=4, seed=1,
        )
        assert result.commits == 20
        assert result.serialization.serializable

    def test_partial_rewinds_under_contention(self):
        config = WorkloadConfig(transactions=24, ops_per_tx=6, keys=3,
                                read_ratio=0.5, seed=2)
        algorithm = CheckpointTM(checkpoint_every=2)
        result = run_experiment(
            algorithm, MemorySpec(), make_workload("readwrite", config),
            concurrency=5, seed=2,
        )
        assert result.commits == 24
        # the whole point: some conflicts were absorbed by partial rewind
        assert algorithm.partial_rewinds > 0

    def test_never_unpushes(self):
        # checkpoints don't share effects until commit (§6.2): rollback is
        # UNAPP/UNPULL only, except a failed *commit* which pushes nothing
        # thanks to validate-then-push.
        config = WorkloadConfig(transactions=20, ops_per_tx=4, keys=3,
                                read_ratio=0.4, seed=3)
        algorithm = CheckpointTM()
        result = run_experiment(
            algorithm, MemorySpec(), make_workload("readwrite", config),
            concurrency=4, seed=3,
        )
        assert "UNPUSH" not in result.rule_counts

    def test_checkpoint_frequency_tradeoff(self):
        # more frequent checkpoints ⇒ at least as many partial rewind
        # opportunities (weak check: both commit everything).
        config = WorkloadConfig(transactions=20, ops_per_tx=6, keys=3,
                                read_ratio=0.5, seed=4)
        programs = make_workload("readwrite", config)
        fine = CheckpointTM(checkpoint_every=1)
        coarse = CheckpointTM(checkpoint_every=6)
        r_fine = run_experiment(fine, MemorySpec(), programs, concurrency=4, seed=4)
        r_coarse = run_experiment(coarse, MemorySpec(), programs, concurrency=4, seed=4)
        assert r_fine.commits == r_coarse.commits == 20


class TestTraceRecorder:
    """A recording tracer on a machine: its passing ``rule`` spans are the
    rule trace, and :func:`~repro.obs.format_figure7` prints them."""

    def run_traced(self):
        tracer = RecordingTracer()
        m, t0 = Machine(KVMapSpec(), tracer=tracer).spawn(
            tx(call("put", "a", 1), call("get", "a"))
        )
        m = m.app(t0)
        m = m.push(t0, m.thread(t0).local[0].op)
        m = m.app(t0)
        m = m.push(t0, m.thread(t0).local[1].op)
        m = m.cmt(t0)
        return tracer

    def test_records_rules_in_order(self):
        tracer = self.run_traced()
        rules = [e.name for e in tracer.events_in(CAT_RULE)]
        assert rules == ["APP", "PUSH", "APP", "PUSH", "CMT"]

    def test_histogram(self):
        assert self.run_traced().names()["PUSH"] == 2

    def test_format_figure7(self):
        assert format_figure7(self.run_traced()).splitlines() == [
            "t0: APP(put('a', 1))",
            "t0: PUSH(put('a', 1))",
            "t0: APP(get('a'))",
            "t0: PUSH(get('a'))",
            "t0: CMT",
        ]


class TestRuntimeTrace:
    def test_driver_run_produces_replayable_style_trace(self):
        from repro.tm.base import Runtime, StepStatus, TxStepper

        tracer = RecordingTracer()
        rt = Runtime(MemorySpec(), tracer=tracer)
        stepper = TxStepper(TL2TM(), rt, tx(call("write", "x", 1), call("read", "x")))
        while stepper.step() is StepStatus.RUNNING:
            pass
        rules = [event.name for event in tracer.events_in(CAT_RULE)]
        assert rules == ["APP", "APP", "PUSH", "PUSH", "CMT"]
        assert "t0: APP(write('x', 1))" in format_figure7(tracer)

    def test_trace_histogram_matches_rule_counts(self):
        import collections

        from repro.runtime import RoundRobinScheduler
        from repro.tm.base import Runtime, TxStepper

        tracer = RecordingTracer()
        rt = Runtime(MemorySpec(), tracer=tracer)
        steppers = [
            TxStepper(TL2TM(), rt, tx(call("write", ("k", i % 2), i)))
            for i in range(6)
        ]
        RoundRobinScheduler().run(steppers)
        histogram = collections.Counter(
            event.name for event in tracer.events_in(CAT_RULE) if event.args["ok"]
        )
        assert histogram == rt.rule_counts


class TestCLI:
    def test_compare(self, capsys):
        exit_code = cli_main([
            "compare", "--workload", "counter", "--transactions", "8",
            "--ops", "2", "--seed", "3", "--concurrency", "3",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "tl2" in out and "boosting" in out
        assert "serializable=yes" in out

    def test_modelcheck(self, capsys):
        exit_code = cli_main(["modelcheck", "--max-states", "50000"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "mem-ww" in out and "OK" in out
        assert "VIOLATION" not in out
