"""Distribution graphs: expected resource usage per control step (eq. 4).

Every operation whose frame allows ``W`` start steps is placed at each of
them with probability ``1/W``; the probability that it *occupies* its
functional unit at step ``t`` is the fraction of start steps ``s`` with
``s <= t <= s + occupancy - 1``.  The distribution graph of a resource
type is the sum of these occupancy probabilities over all operations
executed by that type — the "springs" of force-directed scheduling.

Guarded operations (conditional branches) are combined like alternation
branches in classic FDS: per condition, the *pointwise maximum* of the
branch sums enters the distribution instead of their plain sum, because
at most one branch executes per activation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..errors import SchedulingError
from ..ir.dfg import DataFlowGraph
from ..obs.counters import DISTRIBUTION_REBUILDS, count
from ..resources.library import ResourceLibrary
from .timeframes import FrameTable


def occupancy_row(lo: int, hi: int, occupancy: int, horizon: int) -> np.ndarray:
    """Occupancy-probability row of one operation.

    Args:
        lo, hi: Inclusive start-time frame.
        occupancy: Steps the operation keeps its unit busy per start.
        horizon: Length of the time axis (the block deadline).

    Returns:
        Array of length ``horizon``; entry ``t`` is the probability the
        operation occupies its unit at step ``t``.
    """
    if lo > hi:
        raise SchedulingError(f"empty frame [{lo}, {hi}]")
    if hi + occupancy > horizon:
        raise SchedulingError(
            f"frame [{lo}, {hi}] with occupancy {occupancy} exceeds horizon {horizon}"
        )
    # Vectorized sliding-window count: step ``t`` is covered by the starts
    # in ``[max(lo, t - occupancy + 1), min(hi, t)]``, so the probability is
    # that count times ``1 / width``.  Integer counts times one multiply
    # keep the entries exact multiples of the weight.
    row = np.zeros(horizon, dtype=float)
    weight = 1.0 / (hi - lo + 1)
    steps = np.arange(lo, hi + occupancy)
    counts = np.minimum(hi, steps) - np.maximum(lo, steps - occupancy + 1) + 1
    row[lo : hi + occupancy] = counts * weight
    return row


#: Nonzero spans of occupancy rows by ``(frame width, occupancy)``, shared
#: by every block: the values are a pure function of the key and the
#: arrays are read-only.
_PATTERNS: Dict[Tuple[int, int], np.ndarray] = {}


def occupancy_pattern(width: int, occupancy: int) -> np.ndarray:
    """The values of :func:`occupancy_row` over its nonzero span.

    The row of frame ``[lo, hi]`` is this pattern, for width
    ``hi - lo + 1``, placed at ``lo``: shifting a frame to ``[0, width -
    1]`` leaves the integer sliding-window counts and the weight ``1 /
    width`` unchanged, so the values are identical.  Read-only.
    """
    pattern = _PATTERNS.get((width, occupancy))
    if pattern is None:
        steps = np.arange(width - 1 + occupancy)
        counts = np.minimum(width - 1, steps) - np.maximum(0, steps - occupancy + 1) + 1
        pattern = counts * (1.0 / width)
        pattern.setflags(write=False)
        _PATTERNS[(width, occupancy)] = pattern
    return pattern


def combine_rows(
    rows: Mapping[str, np.ndarray],
    guards: Mapping[str, Optional[Tuple[str, str]]],
    horizon: int,
) -> np.ndarray:
    """Combine operation rows into a distribution, honoring guards.

    Unguarded rows add up; per condition, branch sums are combined by
    pointwise maximum (mutually exclusive alternatives).
    """
    total = np.zeros(horizon, dtype=float)
    branch_sums: Dict[str, Dict[str, np.ndarray]] = {}
    for op_id, row in rows.items():
        guard = guards.get(op_id)
        if guard is None:
            total += row
        else:
            condition, branch = guard
            per_branch = branch_sums.setdefault(condition, {})
            if branch in per_branch:
                per_branch[branch] += row
            else:
                per_branch[branch] = row.astype(float, copy=True)
    for per_branch in branch_sums.values():
        # Left fold in insertion order, value-identical to the old
        # ``np.maximum.reduce(list(...))`` without rebuilding a list of
        # the dict values on every tentative evaluation.
        folded: Optional[np.ndarray] = None
        for branch_sum in per_branch.values():
            if folded is None:
                folded = branch_sum
            else:
                folded = np.maximum(folded, branch_sum)
        if folded is not None:
            total += folded
    return total


class BlockDistributions:
    """All distribution graphs of one block, kept in sync with its frames.

    The time axis is the block's relative time ``0 .. deadline-1``.
    """

    def __init__(
        self, graph: DataFlowGraph, library: ResourceLibrary, frames: FrameTable
    ) -> None:
        self.graph = graph
        self.library = library
        self.frames = frames
        self.horizon = frames.deadline
        self.type_of: Dict[str, str] = {}
        self.occupancy_of: Dict[str, int] = {}
        self.guard_of: Dict[str, Optional[Tuple[str, str]]] = {}
        self._rows: Dict[str, np.ndarray] = {}
        self._sums: Dict[str, np.ndarray] = {}
        self._ops_of_type: Dict[str, List[str]] = {}
        self._guarded_types: Set[str] = set()
        self._row_cache: Dict[str, Dict[Tuple[int, int], np.ndarray]] = {}
        for op in graph:
            rtype = library.type_of(op)
            self.type_of[op.op_id] = rtype.name
            self.occupancy_of[op.op_id] = rtype.occupancy
            self.guard_of[op.op_id] = op.guard
            self._ops_of_type.setdefault(rtype.name, []).append(op.op_id)
            if op.guard is not None:
                self._guarded_types.add(rtype.name)
        for op in graph:
            lo, hi = frames.frame(op.op_id)
            self._rows[op.op_id] = self.tentative_row(op.op_id, lo, hi)
        for type_name in self._ops_of_type:
            self._sums[type_name] = self._compute_array(type_name)

    def _compute_array(
        self,
        type_name: str,
        override: Optional[Mapping[str, np.ndarray]] = None,
    ) -> np.ndarray:
        rows: Dict[str, np.ndarray] = {}
        for op_id in self._ops_of_type[type_name]:
            if override and op_id in override:
                rows[op_id] = override[op_id]
            else:
                rows[op_id] = self._rows[op_id]
        return combine_rows(rows, self.guard_of, self.horizon)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def type_names(self) -> List[str]:
        """Resource types used by this block, deterministic order."""
        return list(self._ops_of_type.keys())

    def ops_of_type(self, type_name: str) -> List[str]:
        return list(self._ops_of_type.get(type_name, []))

    def has_guards(self, type_name: str) -> bool:
        """Whether any operation of the type is guarded (conditional)."""
        return type_name in self._guarded_types

    def row(self, op_id: str) -> np.ndarray:
        """Current occupancy-probability row of one operation (read-only)."""
        return self._rows[op_id]

    def array(self, type_name: str) -> np.ndarray:
        """Current distribution graph of one resource type (read-only)."""
        try:
            return self._sums[type_name]
        except KeyError:
            raise SchedulingError(
                f"block {self.graph.name!r} uses no resource of type {type_name!r}"
            ) from None

    def tentative_row(self, op_id: str, lo: int, hi: int) -> np.ndarray:
        """Row the operation would have with frame ``[lo, hi]``.

        Rows are memoized per operation and ``(lo, hi)`` — the same
        tentative placements are evaluated over and over between commits —
        and must therefore be treated as read-only by callers.  The memo
        keeps live frames only: frames never widen, so :meth:`refresh`
        drops every key of a changed operation that no longer fits inside
        its frame.
        """
        rows = self._row_cache.get(op_id)
        if rows is None:
            rows = self._row_cache[op_id] = {}
        row = rows.get((lo, hi))
        if row is None:
            occupancy = self.occupancy_of[op_id]
            if lo > hi or hi + occupancy > self.horizon:
                occupancy_row(lo, hi, occupancy, self.horizon)  # raises
            row = np.zeros(self.horizon, dtype=float)
            row[lo : hi + occupancy] = occupancy_pattern(hi - lo + 1, occupancy)
            rows[(lo, hi)] = row
        return row

    def tentative_array(
        self, type_name: str, override: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Distribution the type would have with some rows replaced,
        recombined with branch maxima.

        Only guarded types need this: an unguarded type's displacement
        is the plain sum of its increments
        (:meth:`~repro.scheduling.state.BlockState.placement_deltas`).
        """
        return self._compute_array(type_name, override=override)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def refresh(self, changed_ops: Iterable[str]) -> Set[str]:
        """Recompute rows of operations whose frames changed.

        Returns the names of the resource types whose distribution graph
        was affected.  Memoized tentative rows of the changed operations
        that fall outside their new frames are dropped: a frame only
        narrows, so those keys can never be asked for again.  Rows are
        folded into the type sums in sorted op order, so the sums' last
        bits do not follow the set's hash order.
        """
        touched: Set[str] = set()
        for op_id in sorted(changed_ops):
            lo, hi = self.frames.frame(op_id)
            memo = self._row_cache.get(op_id)
            if memo:
                for key in [k for k in memo if k[0] < lo or k[1] > hi]:
                    del memo[key]
            new_row = self.tentative_row(op_id, lo, hi)
            type_name = self.type_of[op_id]
            if type_name not in self._guarded_types:
                self._sums[type_name] += new_row - self._rows[op_id]
            self._rows[op_id] = new_row
            touched.add(type_name)
        for type_name in touched:
            if type_name in self._guarded_types:
                self._sums[type_name] = self._compute_array(type_name)
        if touched:
            count(DISTRIBUTION_REBUILDS, len(touched))
        return touched

    def peak(self, type_name: str) -> float:
        """Maximum of the distribution graph (expected peak usage)."""
        return float(self.array(type_name).max())
