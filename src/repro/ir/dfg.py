"""Dataflow graphs: operations plus precedence (data dependence) edges.

A :class:`DataFlowGraph` is a directed acyclic graph whose nodes are
:class:`~repro.ir.operation.Operation` objects.  An edge ``u -> v`` means
*v consumes a value produced by u* and therefore may start only after *u*
has finished (start_v >= start_u + latency_u; latencies are a property of
the resource binding and are supplied by the scheduler, not stored here).

The graph is the unit the paper calls the *operation set of a block*
(§4, "Input data for the FDS algorithm is the operation set of a block
represented as a graph describing its precedence constraints").
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import GraphError
from .operation import OpKind, Operation


class DataFlowGraph:
    """A directed acyclic precedence graph over operations.

    The graph preserves insertion order of operations, which gives all
    algorithms in this library a deterministic iteration order.
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._ops: Dict[str, Operation] = {}
        self._succs: Dict[str, List[str]] = {}
        self._preds: Dict[str, List[str]] = {}
        self._topo_cache: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_operation(self, op: Operation) -> Operation:
        """Add an operation node.  Raises :class:`GraphError` on duplicate ids."""
        if op.op_id in self._ops:
            raise GraphError(f"duplicate operation id {op.op_id!r} in graph {self.name!r}")
        self._ops[op.op_id] = op
        self._succs[op.op_id] = []
        self._preds[op.op_id] = []
        self._topo_cache = None
        return op

    def add(
        self,
        op_id: str,
        kind: OpKind,
        *,
        name: Optional[str] = None,
        guard: Optional[Tuple[str, str]] = None,
    ) -> Operation:
        """Convenience: create and add an operation in one call."""
        return self.add_operation(
            Operation(op_id=op_id, kind=kind, name=name, guard=guard)
        )

    def add_edge(self, src: str, dst: str) -> None:
        """Add a precedence edge ``src -> dst``.

        Duplicate edges are ignored; self-loops and edges that would create
        a cycle raise :class:`GraphError`.
        """
        if src not in self._ops:
            raise GraphError(f"unknown source operation {src!r}")
        if dst not in self._ops:
            raise GraphError(f"unknown destination operation {dst!r}")
        if src == dst:
            raise GraphError(f"self-loop on operation {src!r}")
        if dst in self._succs[src]:
            return
        if self._reaches(dst, src):
            # Checked before the edge goes in, so the graph stays usable.
            raise GraphError(f"edge {src!r} -> {dst!r} would create a cycle")
        self._succs[src].append(dst)
        self._preds[dst].append(src)
        self._topo_cache = None

    def add_edges(self, edges: Iterable[Tuple[str, str]]) -> None:
        """Add many edges at once."""
        for src, dst in edges:
            self.add_edge(src, dst)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, op_id: str) -> bool:
        return op_id in self._ops

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops.values())

    def operation(self, op_id: str) -> Operation:
        """Look up an operation by id."""
        try:
            return self._ops[op_id]
        except KeyError:
            raise GraphError(f"unknown operation {op_id!r} in graph {self.name!r}") from None

    @property
    def operations(self) -> List[Operation]:
        """All operations in insertion order."""
        return list(self._ops.values())

    @property
    def op_ids(self) -> List[str]:
        """All operation ids in insertion order."""
        return list(self._ops.keys())

    @property
    def edges(self) -> List[Tuple[str, str]]:
        """All precedence edges as ``(src, dst)`` pairs."""
        return [(src, dst) for src, dsts in self._succs.items() for dst in dsts]

    def successors(self, op_id: str) -> List[str]:
        """Direct successors (consumers) of an operation."""
        self.operation(op_id)
        return list(self._succs[op_id])

    def predecessors(self, op_id: str) -> List[str]:
        """Direct predecessors (producers) of an operation."""
        self.operation(op_id)
        return list(self._preds[op_id])

    def sources(self) -> List[str]:
        """Operations with no predecessors."""
        return [oid for oid in self._ops if not self._preds[oid]]

    def sinks(self) -> List[str]:
        """Operations with no successors."""
        return [oid for oid in self._ops if not self._succs[oid]]

    def count_by_kind(self) -> Dict[OpKind, int]:
        """Histogram of operation kinds."""
        counts: Dict[OpKind, int] = {}
        for op in self._ops.values():
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def operations_of_kind(self, kind: OpKind) -> List[Operation]:
        """All operations of one kind, in insertion order."""
        return [op for op in self._ops.values() if op.kind == kind]

    def conditions(self) -> Dict[str, List[str]]:
        """Conditions appearing in guards, each with its branch labels."""
        conditions: Dict[str, List[str]] = {}
        for op in self._ops.values():
            if op.guard is not None:
                condition, branch = op.guard
                branches = conditions.setdefault(condition, [])
                if branch not in branches:
                    branches.append(branch)
        return conditions

    # ------------------------------------------------------------------
    # Orderings and paths
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Kahn topological order (deterministic: insertion order tie-break)."""
        if self._topo_cache is not None:
            return list(self._topo_cache)
        indegree = {oid: len(self._preds[oid]) for oid in self._ops}
        ready = [oid for oid in self._ops if indegree[oid] == 0]
        order: List[str] = []
        cursor = 0
        while cursor < len(ready):
            oid = ready[cursor]
            cursor += 1
            order.append(oid)
            for succ in self._succs[oid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._ops):
            raise GraphError(f"graph {self.name!r} contains a cycle")
        self._topo_cache = order
        return list(order)

    def _reaches(self, start: str, target: str) -> bool:
        """Whether ``target`` is reachable from ``start`` over successors."""
        stack = [start]
        seen = {start}
        while stack:
            for succ in self._succs[stack.pop()]:
                if succ == target:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    def critical_path_length(self, latency_of) -> int:
        """Length (in control steps) of the longest path.

        Args:
            latency_of: callable mapping an :class:`Operation` to its integer
                latency in control steps.

        Returns:
            The minimum number of control steps any schedule needs, i.e.
            ``max over sinks of (finish time under ASAP with the given
            latencies)``.
        """
        finish: Dict[str, int] = {}
        longest = 0
        for oid in self.topological_order():
            op = self._ops[oid]
            start = max((finish[p] for p in self._preds[oid]), default=0)
            finish[oid] = start + int(latency_of(op))
            longest = max(longest, finish[oid])
        return longest

    def subgraph(self, op_ids: Sequence[str], name: Optional[str] = None) -> "DataFlowGraph":
        """Induced subgraph over the given operation ids."""
        keep = set(op_ids)
        sub = DataFlowGraph(name=name or f"{self.name}.sub")
        for oid in self._ops:
            if oid in keep:
                sub.add_operation(self._ops[oid])
        for src, dst in self.edges:
            if src in keep and dst in keep:
                sub.add_edge(src, dst)
        return sub

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError` on failure."""
        self.topological_order()
        for src, dsts in self._succs.items():
            if len(set(dsts)) != len(dsts):
                raise GraphError(f"duplicate edges out of {src!r}")
            for dst in dsts:
                if src not in self._preds[dst]:
                    raise GraphError(f"edge {src!r}->{dst!r} missing reverse link")

    def __repr__(self) -> str:
        return (
            f"DataFlowGraph(name={self.name!r}, ops={len(self._ops)}, "
            f"edges={sum(len(s) for s in self._succs.values())})"
        )
