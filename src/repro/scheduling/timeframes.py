"""ASAP/ALAP time frames with incremental precedence propagation.

Time-constrained scheduling starts from the interval of feasible *start*
times of every operation: ``[asap, alap]`` (§4: "the possible time frames
for each operation are computed by an ASAP and ALAP scheduling").  A
:class:`FrameTable` holds these frames for one block and keeps them
consistent under reductions: shrinking one operation's frame propagates
through the precedence edges ("implicit time frame reductions of other
operations may occur due to the precedence constraints").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import InfeasibleError, SchedulingError
from ..ir.dfg import DataFlowGraph
from ..ir.operation import Operation


class FrameTable:
    """Feasible start-time frames of all operations of one block.

    Args:
        graph: The block's dataflow graph.
        latency_of: Callable mapping an operation to its latency in control
            steps (precedence uses full latency, even for pipelined units).
        deadline: The block's time range; every operation must *finish* at
            or before this step, so a sink with latency ``d`` may start no
            later than ``deadline - d``.

    Raises:
        InfeasibleError: if the critical path exceeds the deadline.
    """

    def __init__(
        self,
        graph: DataFlowGraph,
        latency_of: Callable[[Operation], int],
        deadline: int,
    ) -> None:
        self.graph = graph
        self.deadline = deadline
        self._latency: Dict[str, int] = {}
        for op in graph:
            latency = int(latency_of(op))
            if latency < 1:
                raise SchedulingError(f"operation {op.op_id!r}: latency must be >= 1")
            self._latency[op.op_id] = latency
        # Adjacency read once: the graph is fixed while its frames are
        # reduced, and propagation walks it on every commit.
        self._succs = {oid: graph.successors(oid) for oid in self._latency}
        self._preds = {oid: graph.predecessors(oid) for oid in self._latency}
        self._topo = graph.topological_order()
        self._lo: Dict[str, int] = {}
        self._hi: Dict[str, int] = {}
        self._compute_initial_frames()
        # Incremental mobility tracking: ``_unfixed_list`` is a
        # topo-ordered superset of the mobile operations, compacted
        # lazily on read, so :meth:`unfixed` costs O(mobile + newly
        # fixed) instead of a full scan; ``_unfixed_count`` keeps
        # :meth:`all_fixed` O(1); ``_version`` bumps on every committed
        # frame change so callers can memoize frame-derived state.
        self._unfixed_list: List[str] = [
            oid for oid in self._topo if self._lo[oid] != self._hi[oid]
        ]
        self._unfixed_count = len(self._unfixed_list)
        self._unfixed_stale = False
        self._version = 0

    def _compute_initial_frames(self) -> None:
        for oid in self._topo:
            self._lo[oid] = max(
                (self._lo[p] + self._latency[p] for p in self._preds[oid]),
                default=0,
            )
        for oid in reversed(self._topo):
            bound = self.deadline - self._latency[oid]
            for succ in self._succs[oid]:
                bound = min(bound, self._hi[succ] - self._latency[oid])
            self._hi[oid] = bound
            if self._hi[oid] < self._lo[oid]:
                raise InfeasibleError(
                    f"block {self.graph.name!r}: operation {oid!r} cannot meet "
                    f"deadline {self.deadline} (asap {self._lo[oid]} > alap {self._hi[oid]})"
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def latency(self, op_id: str) -> int:
        return self._latency[op_id]

    def lo(self, op_id: str) -> int:
        """Earliest feasible start (current ASAP)."""
        return self._lo[op_id]

    def hi(self, op_id: str) -> int:
        """Latest feasible start (current ALAP)."""
        return self._hi[op_id]

    def frame(self, op_id: str) -> Tuple[int, int]:
        return self._lo[op_id], self._hi[op_id]

    def width(self, op_id: str) -> int:
        """Number of feasible start steps (the paper's time-frame width)."""
        return self._hi[op_id] - self._lo[op_id] + 1

    def mobility(self, op_id: str) -> int:
        """Slack of the operation: width - 1."""
        return self.width(op_id) - 1

    def is_fixed(self, op_id: str) -> bool:
        return self._lo[op_id] == self._hi[op_id]

    def all_fixed(self) -> bool:
        return self._unfixed_count == 0

    def unfixed_count(self) -> int:
        """Number of operations whose frame allows more than one start."""
        return self._unfixed_count

    def version(self) -> int:
        """Monotonic counter bumped by every committed frame change.

        Lets callers memoize frame-derived state (hashes, candidate
        lists) and revalidate with one integer comparison instead of a
        full-table scan.
        """
        return self._version

    def unfixed(self) -> List[str]:
        """Ids of operations whose frame still allows more than one start."""
        if self._unfixed_stale:
            lo, hi = self._lo, self._hi
            self._unfixed_list = [
                oid for oid in self._unfixed_list if lo[oid] != hi[oid]
            ]
            self._unfixed_stale = False
        return self._unfixed_list

    def frames(self) -> Dict[str, Tuple[int, int]]:
        """Snapshot of all frames."""
        return {oid: (self._lo[oid], self._hi[oid]) for oid in self._topo}

    def as_schedule(self) -> Dict[str, int]:
        """Start times once all frames are fixed."""
        if not self.all_fixed():
            raise SchedulingError("frames not fully reduced; no schedule yet")
        return dict(self._lo)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def reduce(self, op_id: str, new_lo: int, new_hi: int) -> Set[str]:
        """Shrink one frame and propagate along precedence edges.

        Returns the set of operation ids whose frame changed (including
        ``op_id`` itself if it changed).  Raises :class:`InfeasibleError` if
        the reduction empties any frame; the table is left unchanged in
        that case.
        """
        return set(self.reduce_frames(op_id, new_lo, new_hi))

    def reduce_frames(
        self, op_id: str, new_lo: int, new_hi: int
    ) -> Dict[str, Tuple[int, int]]:
        """Like :meth:`reduce`, but maps each changed operation to its
        frame before the reduction, read from the undo log."""
        lo, hi = self._lo[op_id], self._hi[op_id]
        if new_lo <= lo and new_hi >= hi:
            # Superset request: nothing can shrink (frames only ever
            # narrow) and the clamped bounds equal the current frame, so
            # skip the clamp arithmetic entirely.  This is the hot exit
            # for ``fix`` on an already-fixed operation.
            return {}
        new_lo = max(lo, new_lo)
        new_hi = min(hi, new_hi)
        if new_lo > new_hi:
            raise InfeasibleError(
                f"reduction of {op_id!r} to [{new_lo}, {new_hi}] empties the frame"
            )
        undo: List[Tuple[str, int, int]] = []
        try:
            self._apply(op_id, new_lo, new_hi, undo)
        except InfeasibleError:
            for oid, old_lo, old_hi in reversed(undo):
                self._lo[oid], self._hi[oid] = old_lo, old_hi
            # The fix-count bookkeeping ran ahead of the failure; recount
            # against the (restored) superset list.  Error paths are cold.
            lo_map, hi_map = self._lo, self._hi
            self._unfixed_count = sum(
                1 for oid in self._unfixed_list if lo_map[oid] != hi_map[oid]
            )
            self._unfixed_stale = True
            raise
        self._version += 1
        # Every undo record is a changed frame; an operation changed
        # twice keeps its first (oldest) record, written last here.
        return {oid: (old_lo, old_hi) for oid, old_lo, old_hi in reversed(undo)}

    def fix(self, op_id: str, start: int) -> Set[str]:
        """Pin an operation to a single start step (classic FDS placement)."""
        return self.reduce(op_id, start, start)

    def _apply(
        self,
        op_id: str,
        new_lo: int,
        new_hi: int,
        undo: List[Tuple[str, int, int]],
    ) -> None:
        undo.append((op_id, self._lo[op_id], self._hi[op_id]))
        was_mobile = self._lo[op_id] != self._hi[op_id]
        self._lo[op_id], self._hi[op_id] = new_lo, new_hi
        if was_mobile and new_lo == new_hi:
            self._unfixed_count -= 1
            self._unfixed_stale = True
        succs_of = self._succs
        preds_of = self._preds
        worklist: List[str] = [op_id]
        while worklist:
            oid = worklist.pop()
            lat = self._latency[oid]
            earliest_succ_start = self._lo[oid] + lat
            for succ in succs_of[oid]:
                if self._lo[succ] < earliest_succ_start:
                    hi_succ = self._hi[succ]
                    undo.append((succ, self._lo[succ], hi_succ))
                    self._lo[succ] = earliest_succ_start
                    if earliest_succ_start > hi_succ:
                        raise InfeasibleError(
                            f"propagation emptied frame of {succ!r}"
                        )
                    if earliest_succ_start == hi_succ:
                        self._unfixed_count -= 1
                        self._unfixed_stale = True
                    worklist.append(succ)
            for pred in preds_of[oid]:
                latest_pred_start = self._hi[oid] - self._latency[pred]
                if self._hi[pred] > latest_pred_start:
                    lo_pred = self._lo[pred]
                    undo.append((pred, lo_pred, self._hi[pred]))
                    self._hi[pred] = latest_pred_start
                    if lo_pred > latest_pred_start:
                        raise InfeasibleError(
                            f"propagation emptied frame of {pred!r}"
                        )
                    if lo_pred == latest_pred_start:
                        self._unfixed_count -= 1
                        self._unfixed_stale = True
                    worklist.append(pred)

    # ------------------------------------------------------------------
    # Tentative neighbor frames (for force evaluation)
    # ------------------------------------------------------------------
    def implied_neighbor_frames(
        self, op_id: str, start: int
    ) -> Dict[str, Tuple[int, int]]:
        """Frames of *direct* predecessors/successors implied by placing
        ``op_id`` at ``start``, without modifying the table.

        Classic FDS evaluates predecessor/successor forces from exactly
        these first-order implied reductions (Paulin & Knight §IV); the
        transitive closure is intentionally not followed.
        """
        implied: Dict[str, Tuple[int, int]] = {}
        for pred in self.graph.predecessors(op_id):
            new_hi = min(self._hi[pred], start - self._latency[pred])
            if new_hi != self._hi[pred]:
                implied[pred] = (self._lo[pred], new_hi)
        finish = start + self._latency[op_id]
        for succ in self.graph.successors(op_id):
            new_lo = max(self._lo[succ], finish)
            if new_lo != self._lo[succ]:
                implied[succ] = (new_lo, self._hi[succ])
        return implied


def asap_schedule(
    graph: DataFlowGraph, latency_of: Callable[[Operation], int]
) -> Dict[str, int]:
    """As-soon-as-possible start times (no resource limits)."""
    starts: Dict[str, int] = {}
    for oid in graph.topological_order():
        starts[oid] = max(
            (starts[p] + latency_of(graph.operation(p)) for p in graph.predecessors(oid)),
            default=0,
        )
    return starts


def alap_schedule(
    graph: DataFlowGraph, latency_of: Callable[[Operation], int], deadline: int
) -> Dict[str, int]:
    """As-late-as-possible start times against a deadline.

    One direct reverse pass over the precedence edges — no
    :class:`FrameTable` (whose forward pass, dict snapshots, and frame
    consistency checks this function never needed).  Infeasibility is
    detected exactly as before: a backward-pass bound below step 0 means
    the critical path through that operation exceeds the deadline, which
    is precisely the ``asap > alap`` condition the full table reports
    (the ASAP of the chain's head is 0).
    """
    latency: Dict[str, int] = {}
    for op in graph:
        lat = int(latency_of(op))
        if lat < 1:
            raise SchedulingError(
                f"operation {op.op_id!r}: latency must be >= 1"
            )
        latency[op.op_id] = lat
    starts: Dict[str, int] = {}
    for oid in reversed(graph.topological_order()):
        lat = latency[oid]
        bound = deadline - lat
        for succ in graph.successors(oid):
            implied = starts[succ] - lat
            if implied < bound:
                bound = implied
        if bound < 0:
            raise InfeasibleError(
                f"block {graph.name!r}: operation {oid!r} cannot meet "
                f"deadline {deadline} (alap start {bound} before step 0)"
            )
        starts[oid] = bound
    return {oid: starts[oid] for oid in graph.op_ids}
