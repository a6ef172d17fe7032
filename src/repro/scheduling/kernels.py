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

* :func:`increment_stacks` builds the per-type displacement rows
  (:class:`IncrementStack`) of a batch of placements.  A row is the
  plain sum of its increments and never reads the type's current
  distribution, so the coupled scheduler copies the rows into its row
  tables, keeps them across commits and only re-folds them when the
  distribution moves;
* :func:`row_dots` and :func:`row_self_dots` fold displacement rows
  into Hooke terms with one matrix product per displaced type;
* :class:`PlacementKernel` is the FDS driver: one call returns the
  forces of every (op, step) placement of an iteration.

Classic FDS probes every step of a frame and the IFDS schedulers only
its two ends (§4); both batch shapes go through the same stacks.

Exactness contract
------------------
Displacement construction is purely elementwise (subtract, add in
override order, masked rows), so every stack row is **bit-identical**
to :meth:`BlockState.placement_deltas` for the same candidate.  The force
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
their rows are :meth:`BlockState.placement_deltas` copied into the
same per-type stacks and folded by the same products.
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
    """The displacement rows of one displaced type over a batch of placements.

    Row ``i`` of the stack belongs to batch row ``index[0, i]``, where
    the type sits at position ``index[1, i]`` of that row's type order
    (a consumer maps both into its own coordinates; the coupled kernel
    writes each row into its row table with the row's value cell).
    ``delta[i]`` is the row's finished displacement: the sum of its
    increments ``override - current`` in override order, or, for a
    guarded placement, the branch-max row of
    :meth:`BlockState.placement_deltas` (branch-max recombination is
    not an additive update).  No row reads the type's distribution, so
    a stack stays valid while that distribution moves.
    """

    __slots__ = ("index", "delta")

    def __init__(self, index: np.ndarray, delta: np.ndarray) -> None:
        self.index = index
        self.delta = delta


def increment_stacks(
    state: BlockState, candidates: Sequence[Tuple[str, int]]
) -> Tuple[List[Tuple[str, ...]], Dict[str, IncrementStack]]:
    """Per-type displacement stacks of a batch of tentative placements.

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
    of another; ``add.at`` then adds each further increment into its
    row, in override order.  A guarded candidate's rows are
    :meth:`BlockState.placement_deltas`, entered as ``row - 0``.
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
    horizon = dist.horizon
    type_orders: List[Tuple[str, ...]] = [()] * len(candidates)
    # Per type: batch rows, type-order positions, and the (override,
    # current) first rows, or (guarded row, zero), of the stack rows.
    by_type: Dict[str, Tuple[List[int], List[int], List[np.ndarray]]] = {}
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
            group = by_type[type_name] = ([], [], [])
        group[0].append(row)
        group[1].append(len(order))
        group[2].append(new_row)
        group[2].append(current[oid])
        order.append(type_name)

    for row, (op_id, start) in enumerate(candidates):
        if op_id in guarded:
            deltas = state.placement_deltas(op_id, start)
            type_orders[row] = tuple(deltas)
            zero = np.zeros(horizon)
            for position, (type_name, delta) in enumerate(deltas.items()):
                group = by_type.get(type_name)
                if group is None:
                    group = by_type[type_name] = ([], [], [])
                group[0].append(row)
                group[1].append(position)
                group[2].append(delta)
                group[2].append(zero)
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
    first = _pair_differences([group[2] for group in by_type.values()], horizon)
    further = _pair_differences([extra[name][1] for name in extra], horizon)
    stacks: Dict[str, IncrementStack] = {}
    end = 0
    for type_name, (rows, positions, _pairs) in by_type.items():
        begin, end = end, end + len(rows)
        stacks[type_name] = IncrementStack(
            np.array((rows, positions), dtype=np.intp), first[begin:end]
        )
    offset = 0
    for type_name, (at, _pairs) in extra.items():
        np.add.at(stacks[type_name].delta, at, further[offset : offset + len(at)])
        offset += len(at)
    return type_orders, stacks


def _pair_differences(groups: List[List[np.ndarray]], horizon: int) -> np.ndarray:
    """``first - second`` of every (first, second) row pair of every
    group, groups in order, as one stacked subtraction."""
    flat = [row for group in groups for row in group]
    if not flat:
        return np.empty((0, horizon), dtype=float)
    pairs = np.concatenate(flat).reshape(-1, 2, horizon)
    return pairs[:, 0] - pairs[:, 1]


class PlacementKernel:
    """Batched local-force evaluator for one block (FDS driver core).

    One :meth:`forces` call returns the weighted Hooke force of every
    tentative placement of a batch: the displacement rows come from one
    :func:`increment_stacks` batch, the dots from one matrix product per
    displaced type, guarded operations included.

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
            deltas = stack.delta
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
