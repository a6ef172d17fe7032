"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import (
    Block,
    DataFlowGraph,
    OpKind,
    Process,
    ResourceAssignment,
    SystemSpec,
    default_library,
)


@pytest.fixture
def library():
    """The paper's default resource library."""
    return default_library()


@pytest.fixture
def chain_graph():
    """add -> mul -> add: a three-operation chain."""
    graph = DataFlowGraph(name="chain")
    graph.add("a1", OpKind.ADD)
    graph.add("m1", OpKind.MUL)
    graph.add("a2", OpKind.ADD)
    graph.add_edges([("a1", "m1"), ("m1", "a2")])
    return graph


@pytest.fixture
def diamond_graph():
    """a1 feeds m1 and a2; both feed a3 (classic diamond)."""
    graph = DataFlowGraph(name="diamond")
    graph.add("a1", OpKind.ADD)
    graph.add("m1", OpKind.MUL)
    graph.add("a2", OpKind.ADD)
    graph.add("a3", OpKind.ADD)
    graph.add_edges([("a1", "m1"), ("a1", "a2"), ("m1", "a3"), ("a2", "a3")])
    return graph


@pytest.fixture
def parallel_adds_graph():
    """Four independent additions (maximal scheduling freedom)."""
    graph = DataFlowGraph(name="par4")
    for i in range(4):
        graph.add(f"a{i}", OpKind.ADD)
    return graph


def make_two_process_system(deadline_a: int = 8, deadline_b: int = 8) -> SystemSpec:
    """Two small independent processes, each a single block of adds."""
    system = SystemSpec(name="two-proc")
    for name, deadline in (("pa", deadline_a), ("pb", deadline_b)):
        graph = DataFlowGraph(name=f"{name}-g")
        graph.add("x1", OpKind.ADD)
        graph.add("x2", OpKind.ADD)
        graph.add("x3", OpKind.ADD)
        graph.add_edge("x1", "x3")
        process = Process(name=name)
        process.add_block(Block(name="main", graph=graph, deadline=deadline))
        system.add_process(process)
    return system


@pytest.fixture
def two_process_system():
    return make_two_process_system()


def long_block_system():
    """A 300-step block whose two forced adders sit past the widening cut.

    With adder period 4 the block spans 75 windows.  A subtracter period
    of 4 leaves the interval analysis's widening limit at its floor of 64
    windows, so the upper profile's tail is widened; a subtracter period
    of 300 raises the limit to 75 and folds it exactly.  The must-busy
    profile folds over the whole block either way.
    """
    library = default_library()
    system = SystemSpec(name="long")
    graph = DataFlowGraph(name="g1")
    for i in range(299):
        graph.add(f"s{i}", OpKind.SUB)
        if i:
            graph.add_edge(f"s{i - 1}", f"s{i}")
    for add in ("a0", "a1"):
        graph.add(add, OpKind.ADD)
        graph.add_edge("s298", add)
    system.add_process(
        Process(name="p1", blocks=[Block(name="main", graph=graph, deadline=300)])
    )
    small = DataFlowGraph(name="g2")
    small.add("a0", OpKind.ADD)
    small.add("s0", OpKind.SUB)
    system.add_process(
        Process(name="p2", blocks=[Block(name="main", graph=small, deadline=300)])
    )
    assignment = ResourceAssignment(library)
    assignment.make_global("adder", ["p1", "p2"])
    assignment.make_global("subtracter", ["p1", "p2"])
    return system, library, assignment
