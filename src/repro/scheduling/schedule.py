"""Schedule results for single blocks: start times, usage profiles, checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import VerificationError
from ..ir.dfg import DataFlowGraph
from ..ir.operation import Operation
from ..resources.library import ResourceLibrary


@dataclass
class BlockSchedule:
    """A fully scheduled block.

    Attributes:
        graph: The scheduled dataflow graph.
        library: Resource library that defined latencies/occupancies.
        starts: Start control step of every operation (relative to the
            block's own, possibly unknown, absolute start time).
        deadline: The block's time range.
        iterations: Scheduler iterations spent producing this schedule
            (0 when not applicable).
        degraded: True when a budget exhaustion forced the producing
            scheduler onto the list-scheduling fallback
            (:mod:`repro.scheduling.fallback`); the schedule is still
            valid, just not force-optimized.
        degraded_reason: Human-readable reason for the degradation.
    """

    graph: DataFlowGraph
    library: ResourceLibrary
    starts: Dict[str, int]
    deadline: int
    iterations: int = 0
    degraded: bool = False
    degraded_reason: Optional[str] = None
    #: Built on first use from ``graph`` and ``library``, which never
    #: change: type name -> (occupancy, the type's operations).
    _ops_by_type: Optional[Dict[str, Tuple[int, List[Operation]]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _op_ids: FrozenSet[str] = field(
        default=frozenset(), init=False, repr=False, compare=False
    )

    def start(self, op_id: str) -> int:
        return self.starts[op_id]

    def finish(self, op_id: str) -> int:
        """First step after the operation's result is available."""
        return self.starts[op_id] + self.library.latency_of(self.graph.operation(op_id))

    @property
    def makespan(self) -> int:
        """Steps until the last operation finishes."""
        return max(self.finish(oid) for oid in self.starts)

    # ------------------------------------------------------------------
    # Resource usage
    # ------------------------------------------------------------------
    def usage_profile(self, type_name: str) -> np.ndarray:
        """Integer concurrent-usage counts per step for one resource type.

        Guarded operations are combined like alternation branches: per
        condition, only the pointwise-maximal branch counts (at most one
        branch executes per activation), so the profile is the worst case
        over all branch outcomes.
        """
        if self._ops_by_type is None:
            index: Dict[str, Tuple[int, List[Operation]]] = {}
            for op in self.graph:
                rtype = self.library.type_of(op)
                index.setdefault(rtype.name, (rtype.occupancy, []))[1].append(op)
            self._ops_by_type = index
            self._op_ids = frozenset(self.graph.op_ids)
        starts = self.starts
        if not starts.keys() <= self._op_ids:
            for oid in starts:
                self.graph.operation(oid)  # raises GraphError for a stray id
        profile = np.zeros(self.deadline, dtype=int)
        if type_name not in self._ops_by_type:
            return profile
        occupancy, ops = self._ops_by_type[type_name]
        branch_sums: Dict[str, Dict[str, np.ndarray]] = {}
        for op in ops:
            start = starts.get(op.op_id)
            if start is None:
                continue
            if op.guard is None:
                profile[start : start + occupancy] += 1
                continue
            row = np.zeros(self.deadline, dtype=int)
            row[start : start + occupancy] += 1
            condition, branch = op.guard
            per_branch = branch_sums.setdefault(condition, {})
            if branch in per_branch:
                per_branch[branch] += row
            else:
                per_branch[branch] = row
        for per_branch in branch_sums.values():
            profile += np.maximum.reduce(list(per_branch.values()))
        return profile

    def peak_usage(self, type_name: str) -> int:
        """Maximum concurrent usage of one type (its local instance need)."""
        profile = self.usage_profile(type_name)
        return int(profile.max()) if profile.size else 0

    def peaks(self) -> Dict[str, int]:
        """Peak usage for every type the block uses."""
        result: Dict[str, int] = {}
        for rtype in self.library.types_used_by(self.graph):
            result[rtype.name] = self.peak_usage(rtype.name)
        return result

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check precedence and deadline constraints; raise on violation."""
        missing = [oid for oid in self.graph.op_ids if oid not in self.starts]
        if missing:
            raise VerificationError(f"unscheduled operations: {missing}")
        for oid in self.graph.op_ids:
            op = self.graph.operation(oid)
            start = self.starts[oid]
            if start < 0:
                raise VerificationError(f"operation {oid!r} starts before step 0")
            if self.finish(oid) > self.deadline:
                raise VerificationError(
                    f"operation {oid!r} finishes at {self.finish(oid)} past "
                    f"deadline {self.deadline}"
                )
            for pred in self.graph.predecessors(oid):
                if self.finish(pred) > start:
                    raise VerificationError(
                        f"precedence violated: {pred!r} finishes at "
                        f"{self.finish(pred)} but {oid!r} starts at {start}"
                    )

    def table(self) -> str:
        """Human-readable step-by-operation listing."""
        lines = [f"schedule of {self.graph.name!r} (deadline {self.deadline})"]
        by_step: Dict[int, List[str]] = {}
        for oid, start in sorted(self.starts.items(), key=lambda kv: (kv[1], kv[0])):
            by_step.setdefault(start, []).append(self.graph.operation(oid).label)
        for step in range(self.deadline):
            if step in by_step:
                lines.append(f"  step {step:3d}: " + ", ".join(by_step[step]))
        return "\n".join(lines)
