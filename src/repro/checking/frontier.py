"""Opacity-frontier search: the smallest registered scope separating a
strategy from opacity.

PR 4's nemesis falsified three ``opaque=True`` labels (earlyrelease,
checkpoint, elastic) with ad-hoc witnesses; this module turns that folk
knowledge into a *registered ladder* of chaos scopes — ordered smallest
to largest — and a deterministic probe: run the strategy once per rung
under the nemesis scheduler with a seeded fault plan, then judge the
recorded history with the TMS2 decision (:mod:`repro.checking.tms2`),
once exhaustively and once through the commit-order witness alone.  A
strategy's **frontier** is the first rung where the exhaustive decision
rejects; a strategy with no frontier on the ladder is opaque as far as
the registered scopes can tell.  Every probe also records whether the
witness-only verdict equals the exhaustive one — the evidence that the
gate's witness walk, which decides every window past seven commits,
agrees with the full search where both can run.

Everything is a pure function of the rung (workload seed, run seed and
fault plan all live in the rung tuple), so the committed
``benchmarks/BENCH_opacity.json`` re-verifies bit-for-bit in CI via
``repro perf --tier opacity``.

The ladder's anchor rungs were found by seeded sweeps and are pinned by
``tests/test_opacity_frontier.py``:

* ``dependent``   falls at rung 0 (3 txs, no faults — a dependent
  commit's pulled-uncommitted view is never serially justifiable);
* ``elastic``     falls at rung 2 (a cut commits a stale early window);
* ``checkpoint``  falls at rung 3 (partial rollback keeps a view that
  mixes pre- and post-checkpoint reads);
* ``earlyrelease`` falls at rung 4 (a released key is overwritten while
  the releasing transaction is still running).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checking.tms2 import decide_history


@dataclass(frozen=True)
class ScopeRung:
    """One registered scope on the ladder: a fully seeded chaos run."""

    name: str
    workload: str
    transactions: int
    ops_per_tx: int
    keys: int
    events: int  #: fault-plan length (0 = fault-free)
    workload_seed: int
    run_seed: int  #: scheduler + fault-plan + recovery seed
    read_ratio: float = 0.5

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "workload": self.workload,
            "transactions": self.transactions,
            "ops_per_tx": self.ops_per_tx,
            "keys": self.keys,
            "events": self.events,
            "workload_seed": self.workload_seed,
            "run_seed": self.run_seed,
            "read_ratio": self.read_ratio,
        }


#: the registered ladder, smallest scope first.  Order matters: a
#: frontier is an *index* into this tuple, and the committed benchmark
#: pins both the index and the rung identity.
FRONTIER_LADDER: Tuple[ScopeRung, ...] = (
    ScopeRung("rw3-quiet", "readwrite", 3, 3, 2, 0, 0, 0),
    ScopeRung("rw3-quiet-s1", "readwrite", 3, 3, 2, 0, 1, 1),
    ScopeRung("rw4-quiet-s4", "readwrite", 4, 3, 2, 0, 4, 4),
    ScopeRung("rw4-faults", "readwrite", 4, 3, 2, 3, 0, 0),
    ScopeRung("rw4-wide-s3", "readwrite", 4, 3, 4, 0, 0, 3),
    ScopeRung("rw5-faults-s6", "readwrite", 5, 3, 4, 3, 6, 6),
    ScopeRung("map5-faults-s6", "map", 5, 3, 2, 3, 6, 6),
)

RUNGS_BY_NAME: Dict[str, ScopeRung] = {r.name: r for r in FRONTIER_LADDER}


@dataclass
class ScopeProbe:
    """The TMS2 verdicts for one (strategy, rung) run."""

    strategy: str
    rung: ScopeRung
    commits: int = 0
    #: the exhaustive decision's violations (every rung stays within the
    #: exhaustive bound)
    tms2_violations: List[str] = field(default_factory=list)
    #: the commit-order witness alone reaches the exhaustive verdict
    witness_agrees: bool = True
    #: False when the run crashed and there was no history to judge
    checked: bool = True
    error: Optional[str] = None

    @property
    def tms2_opaque(self) -> bool:
        return self.checked and not self.tms2_violations


def probe_scope(strategy: str, rung: ScopeRung) -> ScopeProbe:
    """Run ``strategy`` on ``rung`` and judge the history, exhaustively
    and by the witness alone.  Deterministic: every seed comes from the
    rung."""
    from repro.faults.conformance import chaos_setup
    from repro.faults.plan import FaultInjector, FaultPlan
    from repro.runtime.harness import run_experiment
    from repro.runtime.scheduler import make_scheduler
    from repro.runtime.workload import WorkloadConfig

    config = WorkloadConfig(
        transactions=rung.transactions,
        ops_per_tx=rung.ops_per_tx,
        keys=rung.keys,
        read_ratio=rung.read_ratio,
        seed=rung.workload_seed,
    )
    algorithm, spec, programs = chaos_setup(strategy, config, rung.workload)
    injector = FaultInjector(
        FaultPlan.generate(rung.run_seed, events=rung.events, jobs=len(programs))
    )
    scheduler = make_scheduler("nemesis", rung.run_seed)
    probe = ScopeProbe(strategy=strategy, rung=rung)
    try:
        result = run_experiment(
            algorithm,
            spec,
            programs,
            concurrency=len(programs),
            scheduler=scheduler,
            seed=rung.run_seed,
            verify=False,  # the probe runs the checkers itself
            compact=False,  # ... over the full, uncompacted log
            max_retries=12,
            injector=injector,
        )
    except Exception as exc:  # CriterionViolation, MachineError, anything
        probe.checked = False
        probe.error = f"{type(exc).__name__}: {exc}"
        return probe
    history = result.runtime.history
    probe.commits = history.commit_count()
    exhaustive = decide_history(spec, history)
    witness = decide_history(spec, history, max_exhaustive=0)
    probe.tms2_violations = exhaustive.violations
    probe.witness_agrees = witness.opaque == exhaustive.opaque
    return probe


@dataclass
class FrontierResult:
    """One strategy's walk up the ladder."""

    strategy: str
    probes: List[ScopeProbe] = field(default_factory=list)

    @property
    def frontier_index(self) -> Optional[int]:
        for index, probe in enumerate(self.probes):
            if probe.checked and probe.tms2_violations:
                return index
        return None

    @property
    def frontier(self) -> Optional[ScopeRung]:
        index = self.frontier_index
        return None if index is None else self.probes[index].rung

    @property
    def opaque(self) -> bool:
        """Adjudicated verdict: no ladder rung separates the strategy
        from opacity."""
        return self.frontier_index is None

    def to_dict(self) -> Dict[str, Any]:
        index = self.frontier_index
        witness = None if index is None else self.probes[index]
        return {
            "strategy": self.strategy,
            "opaque": self.opaque,
            "frontier_index": index,
            "frontier": None if witness is None else witness.rung.name,
            "frontier_tms2_violations": (
                None if witness is None else len(witness.tms2_violations)
            ),
            "frontier_commits": None if witness is None else witness.commits,
            "rungs_probed": len(self.probes),
        }


def find_frontier(
    strategy: str,
    ladder: Sequence[ScopeRung] = FRONTIER_LADDER,
    stop_at_first: bool = False,
) -> FrontierResult:
    """Walk the ladder and record every probe.  With ``stop_at_first``
    the walk ends at the first separating rung (probe mode); without it
    the full ladder runs (benchmark mode — later rungs going quiet is
    itself information worth committing)."""
    result = FrontierResult(strategy=strategy)
    for rung in ladder:
        probe = probe_scope(strategy, rung)
        result.probes.append(probe)
        if stop_at_first and probe.checked and probe.tms2_violations:
            break
    return result
