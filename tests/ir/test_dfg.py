"""Tests for repro.ir.dfg."""

import pytest

from repro.errors import GraphError
from repro.ir.dfg import DataFlowGraph
from repro.ir.operation import OpKind, Operation


def build_chain(n=3, kind=OpKind.ADD):
    graph = DataFlowGraph(name="chain")
    for i in range(n):
        graph.add(f"n{i}", kind)
    for i in range(n - 1):
        graph.add_edge(f"n{i}", f"n{i + 1}")
    return graph


class TestConstruction:
    def test_add_operations_and_edges(self):
        graph = build_chain(3)
        assert len(graph) == 3
        assert graph.edges == [("n0", "n1"), ("n1", "n2")]

    def test_duplicate_id_rejected(self):
        graph = build_chain(2)
        with pytest.raises(GraphError, match="duplicate"):
            graph.add("n0", OpKind.ADD)

    def test_edge_with_unknown_source_rejected(self):
        graph = build_chain(2)
        with pytest.raises(GraphError, match="unknown source"):
            graph.add_edge("missing", "n0")

    def test_edge_with_unknown_destination_rejected(self):
        graph = build_chain(2)
        with pytest.raises(GraphError, match="unknown destination"):
            graph.add_edge("n0", "missing")

    def test_self_loop_rejected(self):
        graph = build_chain(2)
        with pytest.raises(GraphError, match="self-loop"):
            graph.add_edge("n0", "n0")

    def test_duplicate_edge_ignored(self):
        graph = build_chain(2)
        graph.add_edge("n0", "n1")
        assert graph.edges == [("n0", "n1")]

    def test_cycle_rejected_and_rolled_back(self):
        graph = build_chain(3)
        with pytest.raises(GraphError, match="cycle"):
            graph.add_edge("n2", "n0")
        # The offending edge must not remain.
        assert ("n2", "n0") not in graph.edges
        graph.validate()

    def test_building_does_not_sort(self, monkeypatch):
        """The cycle check walks successors; no added edge runs a Kahn sort."""
        calls = []
        sort = DataFlowGraph.topological_order

        def counted(graph):
            calls.append(graph.name)
            return sort(graph)

        monkeypatch.setattr(DataFlowGraph, "topological_order", counted)
        graph = build_chain(2000)
        for op_id in ("a", "b", "c", "d"):
            graph.add(op_id, OpKind.MUL)
        graph.add_edges(
            [("n1999", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        )
        with pytest.raises(GraphError, match="would create a cycle"):
            graph.add_edge("d", "n0")
        assert calls == []
        assert ("d", "n0") not in graph.edges
        assert graph.topological_order()[-4:] == ["a", "b", "c", "d"]

    def test_add_operation_object(self):
        graph = DataFlowGraph()
        op = Operation("x", OpKind.MUL)
        assert graph.add_operation(op) is op
        assert graph.operation("x") is op


class TestQueries:
    def test_contains_and_lookup(self):
        graph = build_chain(2)
        assert "n0" in graph
        assert "zz" not in graph
        with pytest.raises(GraphError, match="unknown operation"):
            graph.operation("zz")

    def test_successors_predecessors(self):
        graph = build_chain(3)
        assert graph.successors("n0") == ["n1"]
        assert graph.predecessors("n2") == ["n1"]
        assert graph.predecessors("n0") == []

    def test_sources_and_sinks(self):
        graph = build_chain(3)
        assert graph.sources() == ["n0"]
        assert graph.sinks() == ["n2"]

    def test_count_by_kind(self):
        graph = DataFlowGraph()
        graph.add("a", OpKind.ADD)
        graph.add("b", OpKind.ADD)
        graph.add("m", OpKind.MUL)
        assert graph.count_by_kind() == {OpKind.ADD: 2, OpKind.MUL: 1}

    def test_operations_of_kind(self):
        graph = DataFlowGraph()
        graph.add("a", OpKind.ADD)
        graph.add("m", OpKind.MUL)
        assert [op.op_id for op in graph.operations_of_kind(OpKind.MUL)] == ["m"]

    def test_iteration_preserves_insertion_order(self):
        graph = DataFlowGraph()
        for oid in ("z", "a", "m"):
            graph.add(oid, OpKind.ADD)
        assert graph.op_ids == ["z", "a", "m"]


class TestTopologyAndPaths:
    def test_topological_order_respects_edges(self):
        graph = build_chain(4)
        order = graph.topological_order()
        assert order.index("n0") < order.index("n1") < order.index("n3")

    def test_topological_order_deterministic(self):
        graph = DataFlowGraph()
        for oid in ("b", "a", "c"):
            graph.add(oid, OpKind.ADD)
        assert graph.topological_order() == ["b", "a", "c"]

    def test_critical_path_unit_latency(self):
        graph = build_chain(5)
        assert graph.critical_path_length(lambda op: 1) == 5

    def test_critical_path_mixed_latency(self):
        graph = DataFlowGraph()
        graph.add("a", OpKind.ADD)
        graph.add("m", OpKind.MUL)
        graph.add("b", OpKind.ADD)
        graph.add_edges([("a", "m"), ("m", "b")])
        latency = {OpKind.ADD: 1, OpKind.MUL: 2}
        assert graph.critical_path_length(lambda op: latency[op.kind]) == 4

    def test_critical_path_of_parallel_ops(self):
        graph = DataFlowGraph()
        graph.add("a", OpKind.ADD)
        graph.add("b", OpKind.ADD)
        assert graph.critical_path_length(lambda op: 1) == 1

    def test_subgraph_induces_edges(self):
        graph = build_chain(4)
        sub = graph.subgraph(["n1", "n2"])
        assert sub.op_ids == ["n1", "n2"]
        assert sub.edges == [("n1", "n2")]

    def test_subgraph_drops_external_edges(self):
        graph = build_chain(4)
        sub = graph.subgraph(["n0", "n2"])
        assert sub.edges == []

    def test_validate_passes_on_good_graph(self):
        build_chain(3).validate()

    def test_repr_mentions_counts(self):
        assert "ops=3" in repr(build_chain(3))
