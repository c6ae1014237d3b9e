"""Conflict-graph serializability (Papadimitriou [29] — the paper's
serializability reference), as a scalable checker.

The permutation search of :mod:`repro.core.serializability` is exact but
exponential; the classical sufficient condition is *conflict
serializability*: build the directed graph whose nodes are committed
transactions, with an edge ``T1 → T2`` whenever some operation of ``T1``
precedes a non-commuting operation of ``T2`` in the global log.  If the
graph is acyclic, every topological order is a serial witness.

Here "non-commuting" is the specification's mover relation, so this is
conflict serializability at the *abstract* level — e.g. two bank deposits
to the same account create no edge, exactly the coarse-grained-
transactions refinement the paper's line of work advocates.  (Cycles do
not prove non-serializability — view serializability is strictly larger —
so the harness escalates cyclic cases to the exact checker.)
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.history import History
from repro.core.machine import Machine
from repro.core.ops import Op
from repro.core.spec import MemoizedMovers, SequentialSpec


class ConflictGraph:
    """The precedence graph over committed transactions."""

    def __init__(self) -> None:
        self.nodes: Set[int] = set()
        self.edges: Dict[int, Set[int]] = {}
        self.edge_reasons: Dict[Tuple[int, int], Tuple[Op, Op]] = {}

    def add_node(self, node: int) -> None:
        self.nodes.add(node)
        self.edges.setdefault(node, set())

    def add_edge(self, src: int, dst: int, reason: Tuple[Op, Op]) -> None:
        self.add_node(src)
        self.add_node(dst)
        if dst not in self.edges[src]:
            self.edges[src].add(dst)
            self.edge_reasons[(src, dst)] = reason

    def topological_order(self) -> Optional[List[int]]:
        """A topological order, or ``None`` if the graph has a cycle."""
        in_degree = {node: 0 for node in self.nodes}
        for src, dsts in self.edges.items():
            for dst in dsts:
                in_degree[dst] += 1
        frontier = sorted(n for n, d in in_degree.items() if d == 0)
        order: List[int] = []
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            for dst in sorted(self.edges.get(node, ())):
                in_degree[dst] -= 1
                if in_degree[dst] == 0:
                    frontier.append(dst)
        if len(order) != len(self.nodes):
            return None
        return order

    def cycle_witness(self) -> Optional[List[int]]:
        """Some cycle (as a node list), or ``None`` if acyclic.

        Iterative DFS with an explicit stack: the graphs built from the
        benchmark scopes can have thousands of transactions, and a
        recursive walk (one Python frame per node on a long chain) hits
        the interpreter's recursion limit long before memory matters.
        Visits nodes and edges in sorted order, so the witness is the same
        cycle the previous recursive implementation reported."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in self.nodes}
        parent: Dict[int, Optional[int]] = {}

        for root in sorted(self.nodes):
            if color[root] != WHITE:
                continue
            color[root] = GRAY
            # Each stack slot is (node, iterator over its sorted successors);
            # pushing a slot == entering the recursive call.
            stack: List[Tuple[int, Iterator[int]]] = [
                (root, iter(sorted(self.edges.get(root, ()))))
            ]
            while stack:
                node, successors = stack[-1]
                advanced = False
                for nxt in successors:
                    if color[nxt] == GRAY:
                        cycle = [nxt, node]
                        cursor = parent.get(node)
                        while cursor is not None and cursor != nxt:
                            cycle.append(cursor)
                            cursor = parent.get(cursor)
                        cycle.reverse()
                        return cycle
                    if color[nxt] == WHITE:
                        parent[nxt] = node
                        color[nxt] = GRAY
                        stack.append(
                            (nxt, iter(sorted(self.edges.get(nxt, ()))))
                        )
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None


def build_conflict_graph(
    spec: SequentialSpec,
    tx_of_op: Dict[int, int],
    global_ops: Sequence[Op],
    movers: Optional[MemoizedMovers] = None,
) -> ConflictGraph:
    """Precedence edges from global-log order and non-commutation.

    ``tx_of_op`` maps operation ids to transaction identifiers;
    operations without an entry (e.g. of uncommitted transactions) are
    skipped.
    """
    movers = movers or MemoizedMovers(spec)
    graph = ConflictGraph()
    for tx_id in set(tx_of_op.values()):
        graph.add_node(tx_id)
    indexed = [
        (op, tx_of_op[op.op_id])
        for op in global_ops
        if op.op_id in tx_of_op
    ]
    for i, (op1, tx1) in enumerate(indexed):
        for op2, tx2 in indexed[i + 1 :]:
            if tx1 == tx2:
                continue
            if not movers.commutes(op1, op2):
                graph.add_edge(tx1, tx2, (op1, op2))
    return graph


def conflict_serializable(
    spec: SequentialSpec,
    history: History,
    machine: Machine,
) -> Tuple[bool, Optional[List[int]], ConflictGraph]:
    """Conflict-serializability of a recorded run.

    Returns ``(verdict, witness_order, graph)``: on success the witness is
    a topological order of committed ``tx_id``s; on failure (a cycle) the
    verdict is ``False`` and callers should escalate to the exact checker
    (conflict serializability is sufficient, not necessary).
    """
    tx_of_op: Dict[int, int] = {}
    for record in history.committed_records():
        for op in record.ops:
            tx_of_op[op.op_id] = record.tx_id
    graph = build_conflict_graph(
        spec, tx_of_op, machine.global_log.committed_ops(),
        getattr(machine, "movers", None),
    )
    order = graph.topological_order()
    return order is not None, order, graph
