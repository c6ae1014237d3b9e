"""E8 — Theorem 5.17: exhaustive small-scope verification.

Regenerates the central theorem as a computation: the model checker walks
every interleaving of every rule instance (backward rules included) and
confirms the simulation with the atomic machine at every terminal state,
plus the §5.3 invariants everywhere.  The benchmark reports the scope
sizes (states/transitions) so the cost of exhaustiveness is visible, and
compares the full model against the opaque fragment (the simulation-level
side of DESIGN.md ablation 2).
"""

import pytest

from benchmarks.conftest import series_line
from repro.checking import explore
from repro.checking.model_checker import ExploreOptions
from repro.core.language import call, choice, tx
from repro.specs import CounterSpec, KVMapSpec, MemorySpec

SCOPES = {
    "mem: w||w": (
        MemorySpec(),
        [tx(call("write", "x", 1)), tx(call("write", "x", 2))],
    ),
    "mem: wr||w": (
        MemorySpec(),
        [tx(call("write", "x", 1), call("read", "x")), tx(call("write", "x", 2))],
    ),
    "counter: ii||i": (
        CounterSpec(),
        [tx(call("inc"), call("inc")), tx(call("inc"))],
    ),
    "kvmap: branch||put": (
        KVMapSpec(),
        [
            tx(call("put", "a", 1), choice(call("get", "a"), call("remove", "a"))),
            tx(call("put", "b", 2)),
        ],
    ),
}


@pytest.mark.benchmark(group="theorem-5.17")
@pytest.mark.parametrize("scope", sorted(SCOPES))
def test_theorem_full_model(benchmark, scope):
    spec, programs = SCOPES[scope]
    report = benchmark.pedantic(
        lambda: explore(spec, programs, ExploreOptions(max_states=400_000)),
        rounds=1, iterations=1,
    )
    print()
    print(series_line(scope, [
        ("states", report.states),
        ("transitions", report.transitions),
        ("finals", report.final_states),
        ("stuck", report.stuck_states),
    ]))
    assert report.ok  # Theorem 5.17 on the whole reachable space


@pytest.mark.benchmark(group="theorem-5.17")
def test_theorem_fragment_cost_comparison(benchmark):
    """Full model vs opaque-pull vs no-pull state-space sizes."""
    spec, programs = SCOPES["mem: wr||w"]

    def run_all():
        return {
            policy: explore(
                spec, programs,
                ExploreOptions(pull_policy=policy, max_states=400_000),
            )
            for policy in ("all", "committed", "none")
        }

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for policy, report in reports.items():
        print(series_line(f"pull={policy}", [
            ("states", report.states), ("ok", report.ok),
        ]))
    assert all(r.ok for r in reports.values())
    assert reports["none"].states <= reports["committed"].states
    assert reports["committed"].states <= reports["all"].states


@pytest.mark.benchmark(group="theorem-5.17")
def test_theorem_cmtpres_cost(benchmark):
    """The §5.4 commit-preservation invariant checked on every state —
    the most expensive property; tiny scope."""
    spec, programs = SCOPES["mem: w||w"]
    report = benchmark.pedantic(
        lambda: explore(
            spec, programs,
            ExploreOptions(check_cmtpres=True, max_states=10_000),
        ),
        rounds=1, iterations=1,
    )
    print()
    print(series_line("cmtpres", [("states", report.states),
                                  ("ok", report.ok)]))
    assert report.ok
