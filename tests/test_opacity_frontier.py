"""Pins for the opacity-frontier adjudications (``BENCH_opacity.json``).

PR-4's nemesis campaign *stumbled on* falsifying witnesses for the
earlyrelease, checkpoint and elastic strategies; this module pins the
*decided* form: for each falsified strategy, the minimal registered
ladder rung on which the TMS2 reduction separates it from opacity, the
fact that every smaller rung stays clean, and the witness shape at the
frontier.  The same rungs are then re-probed under three honestly opaque
strategies (tl2, globallock, pessimistic), which must stay clean — the
separation is the strategy's, not the scope's.

Everything here is deterministic: a probe is a pure function of
``(strategy, rung)`` (seeded workload, seeded fault plan, seeded nemesis
schedule), so these are exact pins, not flaky thresholds.
"""

from __future__ import annotations

import json

import pytest

from repro.checking.frontier import (
    FRONTIER_LADDER,
    RUNGS_BY_NAME,
    find_frontier,
    probe_scope,
)
from repro.obs.perf import baseline_path

BASELINE_PATH = baseline_path("opacity")

#: strategy -> (frontier rung name, ladder index, tms2 count)
EXPECTED_FRONTIERS = {
    "dependent": ("rw3-quiet", 0, 3),
    "elastic": ("rw4-quiet-s4", 2, 3),
    "checkpoint": ("rw4-faults", 3, 2),
    "earlyrelease": ("rw4-wide-s3", 4, 2),
}

#: honestly opaque strategies re-probed on every frontier rung
CONTROL_STRATEGIES = ("tl2", "globallock", "pessimistic")


class TestFalsifiedFrontiers:
    @pytest.mark.parametrize("strategy", sorted(EXPECTED_FRONTIERS))
    def test_minimal_separating_scope(self, strategy):
        name, index, tms2 = EXPECTED_FRONTIERS[strategy]
        result = find_frontier(strategy, stop_at_first=True)
        assert not result.opaque, f"{strategy} must be separated from opacity"
        assert result.frontier is not None
        assert result.frontier.name == name
        assert result.frontier_index == index
        # Minimality within the registered ladder: every smaller rung is
        # clean, i.e. TMS2 accepts the probe there.
        for probe in result.probes[:index]:
            assert probe.tms2_opaque, (
                f"{strategy}@{probe.rung.name} should be below the frontier"
            )
        witness = result.probes[index]
        assert len(witness.tms2_violations) == tms2
        assert witness.checked and witness.error is None
        # the commit-order witness reaches the same verdicts on the walk
        assert all(probe.witness_agrees for probe in result.probes)

    def test_dependent_frontier_is_a_tms2_only_catch(self):
        """On the rung above dependent's frontier TMS2 keeps rejecting —
        a dirty read no view-consistency check that lets pulled entries
        ride along could see — and the witness alone rejects it too."""
        probe = probe_scope("dependent", RUNGS_BY_NAME["rw3-quiet-s1"])
        assert probe.checked
        assert probe.tms2_violations
        assert probe.witness_agrees


class TestOpaqueControls:
    @pytest.mark.parametrize("strategy", CONTROL_STRATEGIES)
    @pytest.mark.parametrize(
        "rung_name",
        sorted({name for name, _, _ in EXPECTED_FRONTIERS.values()}),
    )
    def test_clean_on_separating_scopes(self, strategy, rung_name):
        probe = probe_scope(strategy, RUNGS_BY_NAME[rung_name])
        assert probe.checked and probe.error is None
        assert probe.tms2_violations == []
        assert probe.witness_agrees
        assert probe.commits >= 1  # the probe actually exercised commits


class TestCommittedBaseline:
    """The committed artifact agrees with the code's own adjudication —
    the perf tier re-derives this; here it is pinned as a plain test so a
    drift shows up in the fast suite too."""

    def test_baseline_frontiers_match_pins(self):
        document = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        assert document["ladder"] == [r.to_dict() for r in FRONTIER_LADDER]
        for strategy, (name, index, _) in EXPECTED_FRONTIERS.items():
            row = document["strategies"][strategy]
            assert row["opaque"] is False
            assert row["frontier"] == name
            assert row["frontier_index"] == index
        for strategy, row in document["strategies"].items():
            if strategy not in EXPECTED_FRONTIERS:
                assert row["opaque"] is True
                assert row["frontier"] is None
