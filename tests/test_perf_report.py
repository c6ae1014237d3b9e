"""``repro perf`` (measure, judge and refresh every benchmark tier) and
``repro report`` (the single-file dashboard).

The exit protocol is the contract the CI matrix relies on: 0 all green,
2 regression, 1 operational error.  The baselines directory is a
parameter, so regressions are tested with *perturbed* copies of the
committed baselines — no waiting for real performance to move.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.cli import SCOPES
from repro.cli import main as cli_main
from repro.obs import RecordingTracer, perf, write_jsonl
from repro.obs.perf import (
    BENCH_DIR,
    TIERS,
    BaselineError,
    Gate,
    PerfFinding,
    PerfReport,
    Tier,
    baseline_path,
    judge,
    load_baseline,
    run_perf,
)
from repro.obs.report import build_report
from repro.runtime import WorkloadConfig, make_workload, run_experiment
from repro.specs import MemorySpec
from repro.tm import TL2TM


def copy_baselines(dst):
    dst.mkdir(parents=True)
    for path in BENCH_DIR.glob("BENCH_*.json"):
        shutil.copy(path, dst)
    return dst


def perturb(baselines, tier, keys, value):
    """Set the value at ``keys`` in ``baselines/BENCH_<tier>.json``;
    returns its dotted path."""
    file = baseline_path(tier, baselines)
    document = json.loads(file.read_text(encoding="utf-8"))
    *parents, leaf = keys
    node = document
    for key in parents:
        node = node[key]
    node[leaf] = value
    file.write_text(json.dumps(document), encoding="utf-8")
    return ".".join(map(str, keys))


def failed_paths(findings):
    return {path for f in findings for path in f.failures}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One ``repro perf --tiny --json`` pass over every tier, against a
    copy of the committed baselines (so measured documents land in the
    copy's ``out/``, not the work tree)."""
    root = tmp_path_factory.mktemp("perf")
    baselines = copy_baselines(root / "baselines")
    findings = root / "findings.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([
            "perf", "--tiny", "--baselines", str(baselines),
            "--json", str(findings),
        ])
    return SimpleNamespace(
        code=code,
        out=out.getvalue(),
        report=json.loads(findings.read_text(encoding="utf-8")),
        baselines=baselines,
    )


class TestJudge:
    """The one judge, on in-memory documents."""

    @pytest.mark.parametrize("gate, measured, committed, ok", [
        (Gate("a.*.n", "identity"), 3, 3, True),
        (Gate("a.*.n", "identity"), 4, 3, False),
        (Gate("a.*.n", "identity", bound=3), 3, 99, True),
        (Gate("a.*.n", "identity", bound=3), 4, 4, False),
        (Gate("a.*.n", "floor", 0.5), 50.0, 100.0, True),
        (Gate("a.*.n", "floor", 0.5), 49.0, 100.0, False),
        (Gate("a.*.n", "floor", bound=2.0), 2.0, 0.0, True),
        (Gate("a.*.n", "floor", bound=2.0), 1.9, 9.0, False),
        (Gate("a.*.n", "ceiling", 0.5), 200.0, 100.0, True),
        (Gate("a.*.n", "ceiling", 0.5), 201.0, 100.0, False),
        (Gate("a.*.n", "ceiling", bound=0), 0, 5, True),
        (Gate("a.*.n", "ceiling", bound=0), 1, 5, False),
    ])
    def test_each_kind_relative_and_absolute(self, gate, measured, committed, ok):
        findings = judge(
            "t", [gate], {"a": {"x": {"n": measured}}},
            {"a": {"x": {"n": committed}}}, cores=1,
        )
        assert [f.status for f in findings] == ["ok" if ok else "FAIL"]
        assert failed_paths(findings) == (set() if ok else {"a.x.n"})

    def test_min_core_row_is_skipped_with_its_reason(self):
        gate = Gate("speedup", "floor", bound=1.5, min_cores=4)
        [finding] = judge("t", [gate], {"speedup": 0.9}, {}, cores=2)
        assert finding.status == "skip"
        assert finding.detail == "needs ≥ 4 usable cores, host has 2"
        assert "skip" in finding.row()
        [finding] = judge("t", [gate], {"speedup": 0.9}, {}, cores=4)
        assert finding.status == "FAIL"

    def test_relative_row_without_committed_value_fails(self):
        [finding] = judge(
            "t", [Gate("rows.*.rps", "floor", 0.35)],
            {"rows": {"a": {"rps": 10.0}, "b": {"rps": 10.0}}},
            {"rows": {"a": {"rps": 10.0}}}, cores=1,
        )
        assert finding.status == "FAIL"
        assert set(finding.failures) == {"rows.b.rps"}
        assert "no committed value" in finding.failures["rows.b.rps"]

    def test_subtree_row_fails_a_leaf_missing_on_either_side(self):
        gate = Gate("scopes.*.verdict", "identity")
        committed = {"scopes": {
            "s": {"verdict": {"states": 4, "rules": {"APP": 1, "CMT": 2}}},
            "t": {"verdict": {"states": 7}},  # not measured: not judged
        }}
        measured = {"scopes": {
            "s": {"verdict": {"states": 4, "rules": {"APP": 1, "PUSH": 2}}},
        }}
        [finding] = judge("t", [gate], measured, committed, cores=1)
        assert set(finding.failures) == {
            "scopes.s.verdict.rules.CMT", "scopes.s.verdict.rules.PUSH",
        }

    def test_unmeasured_row_is_skipped(self):
        [finding] = judge(
            "t", [Gate("aggregate", "floor", bound=2.0)], {"other": 1},
            {"aggregate": 20.0}, cores=1,
        )
        assert (finding.status, finding.detail) == (
            "skip", "not measured by this run",
        )

    def test_non_numeric_value_fails_a_numeric_row(self):
        [finding] = judge(
            "t", [Gate("n", "floor", bound=1)], {"n": [8, 0]}, {}, cores=1,
        )
        assert finding.status == "FAIL"

    def test_gate_rows_are_well_formed(self):
        with pytest.raises(ValueError):
            Gate("x", "floor")
        with pytest.raises(ValueError):
            Gate("x", "ceiling", 0.5, bound=1)
        with pytest.raises(ValueError):
            Gate("x", "between", bound=1)


class TestWatchdog:
    def test_tiny_pass_is_green(self, tiny_run):
        report = tiny_run.report
        assert report["ok"] and report["tiny"]
        assert {f["tier"] for f in report["findings"]} == set(TIERS)
        assert not [f for f in report["findings"] if f["status"] == "FAIL"]
        # every identity row is judged under --tiny, none skipped
        skipped = [f for f in report["findings"] if f["status"] == "skip"]
        assert not [f for f in skipped if f["kind"] == "identity"], skipped
        for finding in skipped:
            assert finding["detail"].startswith(
                ("needs ≥ 4 usable cores, host has", "not measured by this run")
            )
        assert "all gates green" in tiny_run.out
        assert "tiny" in tiny_run.out

    def test_packed_tier_asserts_key_identity(self, tiny_run):
        packed = {
            f["path"]: f["status"] for f in tiny_run.report["findings"]
            if f["tier"] == "packed"
        }
        assert packed == {
            "scopes.*.mismatches": "ok",
            "scopes.*.checked_states": "ok",
            "intern_tables": "ok",
        }

    def test_packed_intern_tables_do_not_depend_on_earlier_tiers(self, tiny_run):
        """``intern_tables`` counts the codes the packed tier's own walks
        reach: measured first, in a fresh process, it reads what the
        shared ``--tiny`` run read after the kernel, por and faults tiers
        had filled the process-wide intern tables."""
        src = str(perf.REPO_ROOT / "src")
        alone = subprocess.run(
            [sys.executable, "-c",
             "import json; from repro.obs.perf import measure_packed; "
             "print(json.dumps(measure_packed(True, 0)['intern_tables']))"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=300,
        )
        after = json.loads(
            (tiny_run.baselines / "out" / "BENCH_packed.current.json")
            .read_text(encoding="utf-8")
        )["intern_tables"]
        assert json.loads(alone.stdout) == after

    def test_throughput_regression_flips_the_gate(self, tmp_path):
        """An absurd committed rate makes the tolerance floor
        unreachable — the watchdog must report a regression."""
        baselines = copy_baselines(tmp_path / "b")
        path = perturb(
            baselines, "kernel", ("baselines", "mem-ww", "states_per_sec"), 1e10
        )
        report = run_perf(["kernel"], tiny=True, baselines=baselines)
        assert not report.ok
        assert failed_paths(report.regressions) == {path}

    def test_verdict_drift_flips_the_gate(self, tmp_path):
        baselines = copy_baselines(tmp_path / "b")
        path = perturb(
            baselines, "kernel", ("baselines", "mem-ww", "verdict", "states"), 9999
        )
        report = run_perf(["kernel"], tiny=True, baselines=baselines)
        assert failed_paths(report.findings) == {path}

    @pytest.mark.parametrize("tier, keys, value", [
        ("kernel", ("baselines", "mem-ww", "traced", "denot.miss"), 3),
        ("por", ("scopes", "counter", "on", "states"), 357),
        ("faults", ("report", "strategies", "boosting", "commits"), 101),
        ("durable", ("recovery", 0, "replayed_commits"), 13),
        ("serve", ("gate", "encounterx1", "p99_ms"), 1.0),
        ("opacity", ("strategies", "elastic", "frontier_index"), 3),
        ("por", ("scopes", "counter-sym", "on", "sym_minimizations"), 520),
    ])
    def test_one_perturbed_value_fails_exactly_its_path(
        self, tiny_run, tmp_path, tier, keys, value
    ):
        baselines = copy_baselines(tmp_path / "b")
        path = perturb(baselines, tier, keys, value)
        measured = json.loads(
            (tiny_run.baselines / "out" / f"BENCH_{tier}.current.json")
            .read_text(encoding="utf-8")
        )
        findings = judge(
            tier, TIERS[tier].gates, measured,
            load_baseline(baseline_path(tier, baselines)),
            cores=measured["env"]["usable_cores"],
        )
        assert failed_paths(findings) == {path}

    def test_missing_baseline_is_operational_not_regression(self, tmp_path):
        with pytest.raises(BaselineError):
            run_perf(["kernel"], tiny=True, baselines=tmp_path)

    def test_report_shape(self):
        report = PerfReport(tiny=False)
        gate = Gate("x", "identity")
        report.findings.append(
            PerfFinding("kernel", gate, "FAIL", "d", {"x": "1 != 2"})
        )
        doc = report.to_dict()
        assert doc["ok"] is False
        assert doc["findings"][0]["tier"] == "kernel"
        assert doc["findings"][0]["failures"] == {"x": "1 != 2"}
        assert "FAIL" in report.render()
        assert "x: 1 != 2" in report.render()


class TestRefresh:
    """``--refresh-baseline`` is the only writer of committed baselines."""

    @staticmethod
    def fake_tier(monkeypatch, rate, ok):
        tier = Tier(
            "fake", "Fake", lambda tiny, seed: {"rate": rate, "ok": ok},
            (Gate("rate", "floor", 0.5), Gate("ok", "identity", bound=True)),
        )
        monkeypatch.setitem(perf.TIERS, "fake", tier)

    def test_refuses_tiny(self, tmp_path, capsys):
        baselines = copy_baselines(tmp_path / "b")
        before = baseline_path("kernel", baselines).read_bytes()
        code = cli_main([
            "perf", "--tiny", "--refresh-baseline", "--tier", "kernel",
            "--baselines", str(baselines),
        ])
        assert code == 1
        assert "refuses --tiny" in capsys.readouterr().err
        assert baseline_path("kernel", baselines).read_bytes() == before

    def test_rewrites_when_only_relative_rows_moved(self, tmp_path, monkeypatch):
        self.fake_tier(monkeypatch, rate=5.0, ok=True)
        path = baseline_path("fake", tmp_path)
        path.write_text(json.dumps({"rate": 100.0, "ok": True}))
        report = run_perf(["fake"], refresh=True, baselines=tmp_path)
        assert report.ok and report.refreshed == {"fake": str(path)}
        [moved] = [f for f in report.findings if f.status == "moved"]
        assert set(moved.failures) == {"rate"}
        assert "moved" in report.render()
        written = json.loads(path.read_text())
        assert written["rate"] == 5.0
        assert set(written["env"]) == {"commit", "usable_cores", "python"}

    def test_refuses_when_an_absolute_row_fails(self, tmp_path, monkeypatch):
        self.fake_tier(monkeypatch, rate=500.0, ok=False)
        path = baseline_path("fake", tmp_path)
        path.write_text(json.dumps({"rate": 100.0, "ok": True}))
        report = run_perf(["fake"], refresh=True, baselines=tmp_path)
        assert not report.ok and report.refreshed == {}
        assert json.loads(path.read_text()) == {"rate": 100.0, "ok": True}


class TestBaselines:
    def test_every_tier_has_a_committed_baseline_in_one_directory(self):
        for name in TIERS:
            assert baseline_path(name).exists(), name
        assert not list(BENCH_DIR.parent.glob("BENCH_*.json"))

    def test_por_baseline_keeps_the_scope_shape(self):
        """``BENCH_por.json``'s per-scope arms are read by tools outside
        the tier table; its shape is a contract."""
        scopes = load_baseline(baseline_path("por"))["scopes"]
        for name in SCOPES:
            for arm in ("on", "off"):
                row = scopes[name][arm]
                assert isinstance(row["states"], int), (name, arm)
                assert isinstance(row["transitions"], int), (name, arm)
                assert row["ok"] is True, (name, arm)


class TestWatchdogCLI:
    def test_exit_zero_on_green(self, tiny_run):
        assert tiny_run.code == 0
        assert "all gates green" in tiny_run.out

    def test_exit_two_on_regression(self, tmp_path, capsys):
        baselines = copy_baselines(tmp_path / "b")
        perturb(
            baselines, "kernel", ("baselines", "mem-ww", "states_per_sec"), 1e10
        )
        code = cli_main([
            "perf", "--tiny", "--tier", "kernel", "--baselines", str(baselines),
        ])
        assert code == 2
        assert "regression" in capsys.readouterr().out

    def test_exit_one_on_missing_baseline(self, tmp_path):
        code = cli_main([
            "perf", "--tiny", "--tier", "kernel", "--baselines", str(tmp_path),
        ])
        assert code == 1
        assert cli_main(["perf", "--tier", "nope"]) == 1

    def test_json_export(self, tiny_run):
        findings = tiny_run.report["findings"]
        assert all(
            {"tier", "path", "kind", "rule", "status", "detail", "failures"}
            <= set(f) for f in findings
        )
        for name in TIERS:
            current = tiny_run.baselines / "out" / f"BENCH_{name}.current.json"
            assert "env" in json.loads(current.read_text(encoding="utf-8"))


class TestDashboard:
    def test_report_is_self_contained(self, tmp_path):
        out = str(tmp_path / "report.html")
        assert build_report(out) == out
        html = open(out, encoding="utf-8").read()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        # Single-file: nothing fetched from anywhere.
        for marker in ("http://", "https://", "src=", "href=", "@import"):
            assert marker not in html, marker
        # One section per tier, each with its provenance, plus coverage.
        for name in TIERS:
            assert f"({name})</h2>" in html, name
        assert "env unrecorded" in html
        assert "usable core(s), Python" in html
        assert "coverage" in html.lower()

    def test_flamegraph_section_from_a_recorded_trace(self, tmp_path):
        tracer = RecordingTracer()
        config = WorkloadConfig(transactions=6, ops_per_tx=3, keys=3,
                                read_ratio=0.5, seed=7)
        run_experiment(
            TL2TM(), MemorySpec(), make_workload("readwrite", config),
            concurrency=3, seed=7, tracer=tracer,
        )
        trace = str(tmp_path / "run.jsonl")
        write_jsonl(tracer, trace)
        out = str(tmp_path / "report.html")
        build_report(out, trace_path=trace)
        html = open(out, encoding="utf-8").read()
        assert "flame" in html.lower()
        assert "APP" in html

    def test_missing_inputs_degrade_gracefully(self, tmp_path):
        out = str(tmp_path / "report.html")
        build_report(
            out, baselines=tmp_path / "none",
            coverage_path=tmp_path / "nope.json", title="empty board",
        )
        html = open(out, encoding="utf-8").read()
        assert "empty board" in html
        assert "no benchmark baselines" in html

    def test_report_cli(self, tmp_path, capsys):
        out = str(tmp_path / "dash.html")
        code = cli_main(["report", "--out", out, "--title", "ci board"])
        assert code == 0
        assert "ci board" in open(out, encoding="utf-8").read()
