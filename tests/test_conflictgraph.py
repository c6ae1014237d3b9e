"""Conflict-graph serializability (Papadimitriou) and its agreement with
the history walk's exact serial verdict."""

import pytest

from repro.checking.tms2 import decide_history
from repro.core.conflictgraph import (
    ConflictGraph,
    build_conflict_graph,
    conflict_serializable,
)
from repro.core.ops import make_op
from repro.runtime import WorkloadConfig, make_workload, run_experiment
from repro.specs import BankSpec, CounterSpec, MemorySpec
from repro.tm import BoostingTM, EncounterTM, TL2TM


class TestConflictGraph:
    def test_topological_order_simple(self):
        g = ConflictGraph()
        a, b = make_op("m", (), None), make_op("m", (), None)
        g.add_edge(1, 2, (a, b))
        g.add_edge(2, 3, (a, b))
        assert g.topological_order() == [1, 2, 3]
        assert g.cycle_witness() is None

    def test_cycle_detected(self):
        g = ConflictGraph()
        a, b = make_op("m", (), None), make_op("m", (), None)
        g.add_edge(1, 2, (a, b))
        g.add_edge(2, 1, (b, a))
        assert g.topological_order() is None
        witness = g.cycle_witness()
        assert witness is not None
        assert set(witness) == {1, 2}

    def test_isolated_nodes(self):
        g = ConflictGraph()
        g.add_node(7)
        g.add_node(3)
        assert sorted(g.topological_order()) == [3, 7]


class TestBuildGraph:
    def test_commuting_ops_make_no_edge(self):
        spec = BankSpec()
        d1 = make_op("deposit", ("a", 1), None)
        d2 = make_op("deposit", ("a", 2), None)
        graph = build_conflict_graph(
            spec, {d1.op_id: 1, d2.op_id: 2}, (d1, d2)
        )
        assert graph.edges[1] == set()
        assert graph.edges[2] == set()

    def test_conflicting_ops_directed_by_log_order(self):
        spec = CounterSpec()
        inc = make_op("inc", (), None)
        get = make_op("get", (), 1)
        graph = build_conflict_graph(
            spec, {inc.op_id: 1, get.op_id: 2}, (inc, get)
        )
        assert 2 in graph.edges[1]
        assert 1 not in graph.edges[2]

    def test_uncommitted_ops_ignored(self):
        spec = CounterSpec()
        inc = make_op("inc", (), None)
        get = make_op("get", (), 1)
        graph = build_conflict_graph(spec, {inc.op_id: 1}, (inc, get))
        assert graph.nodes == {1}


class TestAgreementWithExactChecker:
    @pytest.mark.parametrize("factory", [TL2TM, EncounterTM, BoostingTM],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_acyclic_implies_exact_witness(self, factory, seed):
        config = WorkloadConfig(transactions=12, ops_per_tx=3, keys=4,
                                read_ratio=0.5, seed=seed)
        programs = make_workload("readwrite", config)
        result = run_experiment(factory(), MemorySpec(), programs,
                                concurrency=4, seed=seed)
        ok, order, graph = conflict_serializable(
            MemorySpec(), result.runtime.history, result.runtime.machine
        )
        exact = decide_history(
            MemorySpec(), result.runtime.history,
            result.runtime.machine.global_log.committed_ops(), opacity=False,
        )
        # our runs are conflict-serializable AND exactly serializable:
        assert ok
        assert exact.serializable

    def test_abstract_level_graph_sparser_than_word_level(self):
        """The coarse-grained point: at the abstract level (counter
        mutators commute) the precedence graph has fewer edges than any
        read/write view of the same run would."""
        config = WorkloadConfig(transactions=15, ops_per_tx=2,
                                read_ratio=0.0, seed=5)
        programs = make_workload("counter", config)
        result = run_experiment(BoostingTM(), CounterSpec(), programs,
                                concurrency=4, seed=5)
        ok, order, graph = conflict_serializable(
            CounterSpec(), result.runtime.history, result.runtime.machine
        )
        assert ok
        total_edges = sum(len(d) for d in graph.edges.values())
        assert total_edges == 0  # pure increments: nothing conflicts

    def test_order_respects_every_edge(self):
        config = WorkloadConfig(transactions=10, ops_per_tx=3, keys=3,
                                read_ratio=0.5, seed=6)
        programs = make_workload("readwrite", config)
        result = run_experiment(TL2TM(), MemorySpec(), programs,
                                concurrency=4, seed=6)
        ok, order, graph = conflict_serializable(
            MemorySpec(), result.runtime.history, result.runtime.machine
        )
        assert ok
        position = {tx: i for i, tx in enumerate(order)}
        for src, dsts in graph.edges.items():
            for dst in dsts:
                assert position[src] < position[dst]
