"""CLI surface and documentation-snippet fidelity."""

import pytest

from repro.cli import build_parser, main as cli_main


class TestCLIParser:
    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.workload == "readwrite"
        assert args.transactions == 40

    def test_modelcheck_flags(self):
        args = build_parser().parse_args(
            ["modelcheck", "--max-states", "1000", "--cmtpres"]
        )
        assert args.max_states == 1000
        assert args.cmtpres is True

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("value", ["both", "bounded"])
    def test_modelcheck_rejects_retired_opacity_checkers(self, value, capsys):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["modelcheck", "--opacity-checker", value])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCLIRuns:
    def test_compare_bank(self, capsys):
        exit_code = cli_main([
            "compare", "--workload", "bank", "--transactions", "6",
            "--ops", "2", "--keys", "3", "--seed", "1", "--concurrency", "2",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out.count("serializable=yes") >= 8

    def test_trace_format_overrides_ambiguous_extension(self, tmp_path, capsys):
        """``--format jsonl`` must win over the ``.json`` extension that
        auto-detection would read as Chrome ``trace_event``."""
        import json

        out = str(tmp_path / "events.json")
        code = cli_main([
            "trace", "counter", "--transactions", "4", "--ops", "2",
            "--out", out, "--format", "jsonl",
        ])
        assert code == 0
        assert "(jsonl)" in capsys.readouterr().out
        first = json.loads(open(out, encoding="utf-8").readline())
        assert "traceEvents" not in first
        assert "name" in first and "ph" in first

    def test_trace_format_chrome_despite_jsonl_extension(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "events.jsonl")
        code = cli_main([
            "trace", "counter", "--transactions", "4", "--ops", "2",
            "--out", out, "--format", "chrome",
        ])
        assert code == 0
        assert "(chrome-trace)" in capsys.readouterr().out
        doc = json.load(open(out, encoding="utf-8"))
        assert "traceEvents" in doc

    @pytest.mark.slow
    def test_modelcheck_with_the_tms2_opacity_checker(self, capsys):
        from repro.cli import SCOPES

        assert cli_main(["modelcheck", "--opacity-checker", "tms2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in SCOPES:
            (row,) = [line for line in lines if line.startswith(name + " ")]
            assert row.split()[-2] == "OK", row
        (counters,) = [line for line in lines if line.startswith("opacity: ")]
        assert "opacity.tms2.checks=" in counters
        assert "opacity.tms2.witness_only=" in counters

    def test_evaluate(self, capsys):
        exit_code = cli_main(["evaluate"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "E8" in out
        assert "VIOLATION" not in out


class TestReadmeSnippets:
    def test_quickstart_snippet(self):
        """The README's first code block, executed verbatim-equivalent."""
        from repro.core import CriterionViolation, Machine, call, tx
        from repro.specs import KVMapSpec

        spec = KVMapSpec()
        m = Machine(spec)
        m, t0 = m.spawn(tx(call("put", "a", 5), call("get", "a")))
        m, t1 = m.spawn(tx(call("put", "a", 7)))
        m = m.app(t0)
        op = m.thread(t0).local[0].op
        m = m.push(t0, op)
        m = m.app(t1)
        with pytest.raises(CriterionViolation):
            m.push(t1, m.thread(t1).local[0].op)

    def test_harness_snippet(self):
        from repro.runtime import WorkloadConfig, make_workload, run_experiment
        from repro.specs import MemorySpec
        from repro.tm import TL2TM

        programs = make_workload(
            "readwrite", WorkloadConfig(transactions=10, keys=8)
        )
        result = run_experiment(TL2TM(), MemorySpec(), programs, concurrency=4)
        assert "serializable=yes" in result.summary_row()

    def test_design_doc_mentions_every_experiment_bench(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        design = (root / "DESIGN.md").read_text()
        for bench in sorted((root / "benchmarks").glob("bench_*.py")):
            assert bench.name in design, f"{bench.name} missing from DESIGN.md"

    def test_experiments_doc_covers_all_eleven(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        text = (root / "EXPERIMENTS.md").read_text()
        for exp in [f"E{i}" for i in range(1, 12)]:
            assert f"## {exp}" in text, exp
