"""Array-backed force kernels: batched (op × slot) evaluation.

The force-directed inner loops all reduce to the same shape of work:
for a batch of tentative placements ``(op, start)``, build the per-type
distribution displacements (eq. 5) and fold them into Hooke forces
(eq. 6).  The scalar reference path — :func:`repro.scheduling.forces
.placement_force` — does this one candidate at a time with one tiny
``np.dot`` per displaced type; at system scale that is hundreds of
thousands of interpreter round-trips per run.

This module builds the displacements of a whole batch one way, for
every scheduler:

* :func:`increment_stacks` builds the per-type increment rows
  (:class:`IncrementStack`) of a batch of placements, and
  :func:`replay` turns a stack into displacement rows against the
  type's current distribution.  Rows do not depend on that
  distribution, so the coupled scheduler keeps the stacks across
  commits and only replays them when the distribution moves;
* :func:`row_dots` and :func:`row_self_dots` fold displacement rows
  into Hooke terms with one matrix product per displaced type;
* :class:`PlacementKernel` is the FDS driver: one call returns the
  forces of every (op, step) placement of an iteration.

Classic FDS probes every step of a frame and the IFDS schedulers only
its two ends (§4); both batch shapes go through the same stacks.

Exactness contract
------------------
Displacement construction is purely elementwise (subtract, add, masked
rows), so every :func:`replay` row is **bit-identical** to
:meth:`BlockState.placement_deltas` for the same candidate.  The force
*dots* are batched matrix products, and BLAS matrix–vector products are
not bitwise-identical to a sequence of ``np.dot`` calls (ulp-level
differences, empirically ~1e-16).  Decisions in every scheduler compare
forces against ``1e-12`` epsilons, so agreement with the scalar
reference is pinned at the *decision* level by
``tests/core/test_kernel_parity.py`` (coupled scheduler, which also
runs standalone IFDS) and ``TestSchedulerParity`` under
``tests/scheduling`` (FDS/IFDS); results are deterministic because all
matrix shapes are functions of the scheduling state alone.

Operations whose force footprint (own resource type plus the types of
direct predecessors/successors) contains a *guarded* type
(:attr:`BlockState.guarded_ops`) displace through the branch-max
recombination, which is not an additive update.  They still batch:
their rows are :meth:`BlockState.placement_deltas` verbatim, filed into
the same per-type stacks and folded by the same products.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs import counters as _ambient
from ..obs.counters import FORCE_EVALUATIONS, count, observe_many
from ..obs.metrics import FORCE_EVAL_SECONDS
from .forces import DEFAULT_LOOKAHEAD
from .state import BlockState

__all__ = [
    "row_dots",
    "row_self_dots",
    "IncrementStack",
    "increment_stacks",
    "replay",
    "PlacementKernel",
]


def row_dots(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Row-wise dot products ``matrix[i] . vector`` as one matrix product.

    One dgemv replaces ``n`` interpreter-level ``np.dot`` calls.  Within
    a run the result is deterministic for a given shape; it is *not*
    bitwise-equal to the scalar ``np.dot`` sequence (see the module
    exactness contract).
    """
    return matrix @ vector


def row_self_dots(matrix: np.ndarray) -> np.ndarray:
    """Row-wise self dot products ``matrix[i] . matrix[i]``."""
    return np.einsum("ij,ij->i", matrix, matrix)


class IncrementStack:
    """The increment rows of one displaced type over a batch of placements.

    Row ``i`` of the stack belongs to batch row ``index[0, i]``, where
    the type sits at position ``index[1, i]`` of that row's type order
    (a consumer may renumber both into its own coordinates; the coupled
    kernel stores flat slot-side columns and value cells).  ``inc[i]``
    is the first increment ``override - current`` of the type;
    ``more`` holds the further increments, each applied to stack row
    ``more_at[j]``, in override order (``None`` when there are none).
    Rows listed in ``verbatim`` hold a finished displacement instead:
    guarded placements, whose rows come from
    :meth:`BlockState.placement_deltas` (branch-max recombination is
    not an additive update).  None of the rows depends on the type's
    distribution, so a stack stays valid while that distribution
    moves; :func:`replay` folds it in at use time.
    """

    __slots__ = ("index", "inc", "more_at", "more", "verbatim")

    def __init__(
        self,
        index: np.ndarray,
        inc: np.ndarray,
        more_at: Optional[np.ndarray] = None,
        more: Optional[np.ndarray] = None,
        verbatim: Optional[np.ndarray] = None,
    ) -> None:
        self.index = index
        self.inc = inc
        self.more_at = more_at
        self.more = more
        self.verbatim = verbatim

    def restricted(self, keep: np.ndarray) -> Optional["IncrementStack"]:
        """The rows ``keep`` marks, or ``None`` when no row is left."""
        if not keep.any():
            return None
        more_at = more = verbatim = None
        if self.more_at is not None or self.verbatim is not None:
            renumber = np.cumsum(keep) - 1
            if self.more_at is not None and self.more is not None:
                kept = keep[self.more_at]
                if kept.any():
                    more_at = renumber[self.more_at[kept]]
                    more = self.more[kept]
            if self.verbatim is not None:
                kept = keep[self.verbatim]
                if kept.any():
                    verbatim = renumber[self.verbatim[kept]]
        return IncrementStack(
            self.index[:, keep], self.inc[keep], more_at, more, verbatim
        )

    def extended(self, other: "IncrementStack") -> "IncrementStack":
        """These rows followed by ``other``'s, in new arrays."""
        size = self.inc.shape[0]
        return IncrementStack(
            np.concatenate((self.index, other.index), axis=1),
            np.concatenate((self.inc, other.inc)),
            _joined(self.more_at, other.more_at, size),
            _joined(self.more, other.more, 0),
            _joined(self.verbatim, other.verbatim, size),
        )


def _joined(
    mine: Optional[np.ndarray], theirs: Optional[np.ndarray], shift: int
) -> Optional[np.ndarray]:
    """Two optional arrays end to end, the second shifted by ``shift``."""
    if theirs is None:
        return mine
    if shift:
        theirs = theirs + shift
    return theirs if mine is None else np.concatenate((mine, theirs))


def increment_stacks(
    state: BlockState, candidates: Sequence[Tuple[str, int]]
) -> Tuple[List[Tuple[str, ...]], Dict[str, IncrementStack]]:
    """Per-type increment stacks of a batch of tentative placements.

    Returns each candidate's displaced-type order and one
    :class:`IncrementStack` per displaced type, types in first-seen
    order.  Overrides follow :meth:`BlockState.placement_deltas`: the
    operation's own single-step row, then each predecessor whose frame
    the placement cuts from above and each successor it cuts from
    below, both in graph order; a type's first override opens its
    position in the type order, later ones are further increments.
    Override rows are memoized tentative rows and current rows of the
    distribution, never new arrays, until all first increments of the
    batch come out of one stacked subtraction, and all further ones out
    of another.  Guarded candidates are copied from
    :meth:`BlockState.placement_deltas`.
    """
    dist = state.dist
    tentative_row = dist.tentative_row
    current = dist._rows
    type_of = dist.type_of
    lo_of = state.frames._lo
    hi_of = state.frames._hi
    links = state.links
    interned = state._orders
    guarded = state.guarded_ops
    type_orders: List[Tuple[str, ...]] = [()] * len(candidates)
    # Per type: batch rows, type-order positions, the (override,
    # current) first rows of the replayed rows, and the stack rows and
    # displacements of the verbatim ones.
    by_type: Dict[str, Tuple[List[int], List[int], list, List[int], list]] = {}
    # Per type: the stack row of each further override and its
    # (override, current) rows, in override order.
    extra: Dict[str, Tuple[List[int], List[np.ndarray]]] = {}

    def override(row: int, order: List[str], oid: str, new_row: np.ndarray) -> None:
        type_name = type_of[oid]
        if type_name in order:
            at = extra.get(type_name)
            if at is None:
                at = extra[type_name] = ([], [])
            at[0].append(len(by_type[type_name][0]) - 1)
            at[1].append(new_row)
            at[1].append(current[oid])
            return
        group = by_type.get(type_name)
        if group is None:
            group = by_type[type_name] = ([], [], [], [], [])
        group[0].append(row)
        group[1].append(len(order))
        group[2].append(new_row)
        group[2].append(current[oid])
        order.append(type_name)

    for row, (op_id, start) in enumerate(candidates):
        if op_id in guarded:
            deltas = state.placement_deltas(op_id, start)
            type_orders[row] = tuple(deltas)
            for position, (type_name, delta) in enumerate(deltas.items()):
                group = by_type.get(type_name)
                if group is None:
                    group = by_type[type_name] = ([], [], [], [], [])
                group[3].append(len(group[0]))
                group[4].append(delta)
                group[0].append(row)
                group[1].append(position)
            continue
        latency, preds, succs = links[op_id]
        order: List[str] = []
        override(row, order, op_id, tentative_row(op_id, start, start))
        for pred, pred_latency in preds:
            new_hi = start - pred_latency
            if new_hi < hi_of[pred]:
                override(row, order, pred, tentative_row(pred, lo_of[pred], new_hi))
        finish = start + latency
        for succ in succs:
            if finish > lo_of[succ]:
                override(row, order, succ, tentative_row(succ, finish, hi_of[succ]))
        key = tuple(order)
        type_orders[row] = interned.setdefault(key, key)
    if not by_type:
        return type_orders, {}
    horizon = state.dist.horizon
    first = _pair_differences(
        [group[2] for group in by_type.values()], horizon
    )
    further = _pair_differences(
        [extra[type_name][1] for type_name in extra], horizon
    )
    stacks: Dict[str, IncrementStack] = {}
    offset = 0
    for type_name, (rows, positions, pair_rows, copied, copies) in by_type.items():
        replayed = len(pair_rows) // 2
        block = first[offset : offset + replayed]
        offset += replayed
        if copied:
            inc = np.empty((len(rows), horizon), dtype=float)
            inc[copied] = copies
            if replayed:
                inc[np.setdiff1d(np.arange(len(rows)), copied)] = block
            verbatim: Optional[np.ndarray] = np.asarray(copied, dtype=np.intp)
        else:
            inc = block
            verbatim = None
        stacks[type_name] = IncrementStack(
            np.array((rows, positions), dtype=np.intp), inc, verbatim=verbatim
        )
    offset = 0
    for type_name, (at, more_rows) in extra.items():
        stack = stacks[type_name]
        stack.more_at = np.asarray(at, dtype=np.intp)
        stack.more = further[offset : offset + len(at)]
        offset += len(at)
    return type_orders, stacks


def _pair_differences(groups: List[List[np.ndarray]], horizon: int) -> np.ndarray:
    """``override - current`` of every (override, current) row pair of
    every group, groups in order, as one stacked subtraction."""
    flat = [row for group in groups for row in group]
    if not flat:
        return np.empty((0, horizon), dtype=float)
    pairs = np.concatenate(flat).reshape(-1, 2, horizon)
    return pairs[:, 0] - pairs[:, 1]


def replay(stack: IncrementStack, base: np.ndarray) -> np.ndarray:
    """The displacement rows of a stack against distribution ``base``.

    Runs the scalar ``tentative_array`` round trip
    ``((base + inc_1) + inc_2 ...) - base`` for every row at once
    (IEEE addition commutes, so ``inc_1 + base`` equals
    ``base + inc_1``; ``add.at`` applies repeated indices one after
    another, i.e. each row's further increments in override order),
    so each row equals :meth:`BlockState.placement_deltas` bit for
    bit.  Verbatim rows are copied.  Returns a new array.
    """
    deltas = stack.inc + base
    if stack.more_at is not None and stack.more is not None:
        np.add.at(deltas, stack.more_at, stack.more)
    deltas -= base
    if stack.verbatim is not None:
        deltas[stack.verbatim] = stack.inc[stack.verbatim]
    return deltas


class PlacementKernel:
    """Batched local-force evaluator for one block (FDS driver core).

    One :meth:`forces` call returns the weighted Hooke force of every
    tentative placement of a batch: the displacement rows come from one
    :func:`increment_stacks` batch replayed per displaced type, the dots
    from one matrix product per type, guarded operations included.

    Instrumentation parity: ``force_evaluations`` advances by one per
    (candidate, displaced type) pair — the same total the scalar loop
    counts — and the ``force_eval_seconds`` histogram receives one
    batched record of the mean per-candidate latency times the batch
    width, keeping the uninstrumented path at a single global load.
    """

    def __init__(
        self,
        state: BlockState,
        *,
        lookahead: float = DEFAULT_LOOKAHEAD,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.state = state
        self.lookahead = lookahead
        self.weights = dict(weights) if weights is not None else None

    def _weight(self, type_name: str) -> float:
        if self.weights is None:
            return 1.0
        return float(self.weights.get(type_name, 1.0))

    def forces(self, candidates: Sequence[Tuple[str, int]]) -> List[float]:
        """Weighted force totals of a batch of ``(op, start)`` placements.

        Each type's forces land in a (type-order position × candidate)
        matrix whose rows are then summed from zero in position order,
        so a candidate adds its per-type forces in the order the scalar
        loop does; the zeros past a candidate's last type add exactly
        nothing.
        """
        registry_active = _ambient._active is not None
        started = time.perf_counter() if registry_active else 0.0
        dist = self.state.dist
        type_orders, stacks = increment_stacks(self.state, candidates)
        count(FORCE_EVALUATIONS, sum(len(order) for order in type_orders))
        depth = max((len(order) for order in type_orders), default=0)
        values = np.zeros((depth, len(candidates)))
        for type_name, stack in stacks.items():
            base = dist.array(type_name)
            deltas = replay(stack, base)
            values[stack.index[1], stack.index[0]] = self._weight(type_name) * (
                row_dots(deltas, base) + self.lookahead * row_self_dots(deltas)
            )
        totals = np.zeros(len(candidates))
        for row in values:
            totals += row
        if registry_active and candidates:
            width = len(candidates)
            observe_many(
                FORCE_EVAL_SECONDS, (time.perf_counter() - started) / width, width
            )
        return totals.tolist()
