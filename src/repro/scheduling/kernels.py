"""Array-backed force kernels: batched (op × slot) evaluation.

The force-directed inner loops all reduce to the same shape of work:
for a batch of tentative placements ``(op, start)``, build the per-type
distribution displacements (eq. 5) and fold them into Hooke forces
(eq. 6).  The scalar reference path — :func:`repro.scheduling.forces
.placement_force` — does this one candidate at a time with one tiny
``np.dot`` per displaced type; at system scale that is hundreds of
thousands of interpreter round-trips per run.

This module evaluates *all* candidate slots of an operation (and, for
the system scheduler, all dirty operations of a block) in one vectorized
pass over flat ``(candidates, horizon)`` matrices:

* :func:`batched_occupancy_rows` generalizes
  :func:`repro.scheduling.distribution.occupancy_row`'s sliding-window
  counts to a stacked row matrix;
* :func:`increment_stacks` builds the per-type increment rows
  (:class:`IncrementStack`) of a batch of frame-end placements, and
  :func:`replay` turns a stack into displacement rows against the
  type's current distribution.  Rows do not depend on that
  distribution, so the coupled scheduler keeps the stacks across
  commits and only replays them when the distribution moves;
* :class:`DeltaBatch` builds the per-type displacement matrices for a
  whole candidate batch, value-identical per row to
  :meth:`BlockState.placement_deltas`;
* :class:`PlacementKernel` is the FDS driver: one call returns the
  forces of every start step in an operation's frame.

Exactness contract
------------------
Displacement construction is purely elementwise (subtract, add, masked
zero rows), so every ``DeltaBatch`` and :func:`replay` row is
**bit-identical** to the scalar path's delta for the same candidate.
The force *dots* are batched matrix products, and BLAS matrix–vector
products are not bitwise-identical to a sequence of ``np.dot`` calls
(ulp-level differences, empirically ~1e-16).  Decisions in every scheduler compare
forces against ``1e-12`` epsilons, so agreement with the scalar
reference is pinned at the *decision* level by
``tests/core/test_kernel_parity.py`` (coupled scheduler, which also
runs standalone IFDS) and ``tests/scheduling/test_selection_cache.py``
(FDS/IFDS); results are deterministic because all matrix shapes are
functions of the scheduling state alone.

Operations whose force footprint (own resource type plus the types of
direct predecessors/successors) contains a *guarded* type
(:attr:`BlockState.guarded_ops`) displace through the branch-max
recombination, which is not an additive update.  They still batch:
their rows are :meth:`BlockState.placement_deltas` verbatim, filed into
the same per-type stacks and matrices and folded by the same products.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchedulingError
from ..obs import counters as _ambient
from ..obs.counters import FORCE_EVALUATIONS, count, observe_many
from ..obs.metrics import FORCE_EVAL_SECONDS
from .forces import DEFAULT_LOOKAHEAD
from .state import BlockState

__all__ = [
    "batched_occupancy_rows",
    "row_dots",
    "row_self_dots",
    "IncrementStack",
    "increment_stacks",
    "replay",
    "DeltaBatch",
    "PlacementKernel",
]


#: Step-axis arrays keyed by horizon, shared by every occupancy batch.
#: Read-only by construction; the scheduling stack is single-threaded.
_STEPS_CACHE: Dict[int, np.ndarray] = {}


def _steps(horizon: int) -> np.ndarray:
    steps = _STEPS_CACHE.get(horizon)
    if steps is None:
        steps = np.arange(horizon, dtype=np.int64)
        _STEPS_CACHE[horizon] = steps
    return steps


def batched_occupancy_rows(
    los: Sequence[int],
    his: Sequence[int],
    occupancy,
    horizon: int,
    out: Optional[np.ndarray] = None,
    validate: bool = True,
) -> np.ndarray:
    """Stacked occupancy-probability rows for a batch of frames.

    Row ``i`` is value-identical to ``occupancy_row(los[i], his[i],
    occupancy, horizon)``: the integer sliding-window count times one
    float weight, computed here for every frame at once.  Outside the
    window the clipped count is exactly 0, so the zero entries match the
    scalar path's zero-initialized row bit for bit.

    ``occupancy`` may be one integer for the whole batch or a per-row
    array, so heterogeneous operations batch into one call.  ``out``
    optionally reuses a caller-owned ``(len(los), horizon)`` float
    buffer.  ``validate=False`` skips the frame sanity checks for
    internal callers whose bounds are invariant-guaranteed (scheduler
    frames always satisfy them); the public default keeps them on.
    """
    los = np.asarray(los, dtype=np.int64)
    his = np.asarray(his, dtype=np.int64)
    occ = np.asarray(occupancy, dtype=np.int64)
    if validate:
        if los.shape != his.shape or los.ndim != 1:
            raise SchedulingError(
                f"frame bound arrays must be 1-d and congruent, "
                f"got {los.shape} and {his.shape}"
            )
        if occ.ndim not in (0, 1) or (occ.ndim == 1 and occ.shape != los.shape):
            raise SchedulingError(
                f"occupancy must be a scalar or match the frame bounds, "
                f"got shape {occ.shape}"
            )
        if np.any(los > his):
            bad = int(np.argmax(los > his))
            raise SchedulingError(
                f"empty frame [{int(los[bad])}, {int(his[bad])}]"
            )
        if los.size and np.any(his + occ > horizon):
            bad = int(np.argmax(his + occ > horizon))
            occ_bad = int(occ[bad]) if occ.ndim else int(occ)
            raise SchedulingError(
                f"frame [{int(los[bad])}, {int(his[bad])}] with occupancy "
                f"{occ_bad} exceeds horizon {horizon}"
            )
    n = los.shape[0]
    weights = 1.0 / (his - los + 1)
    steps = _steps(horizon)
    occ_col = occ[:, None] if occ.ndim else occ
    counts = (
        np.minimum(his[:, None], steps)
        - np.maximum(los[:, None], steps - occ_col + 1)
        + 1
    )
    np.maximum(counts, 0, out=counts)
    if out is None:
        return counts * weights[:, None]
    np.multiply(counts, weights[:, None], out=out[:n])
    return out[:n]


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


class DeltaBatch:
    """Per-type displacement matrices of a batch of tentative placements.

    For candidates ``[(op, start), ...]`` of one block, builds — in a
    single pass per operation — the eq. 5 displacement of every
    candidate as rows of per-type ``(len(candidates), horizon)``
    matrices.  Rows replicate the scalar accumulation exactly: the
    tentative distribution starts from the current type sum, adds the
    operation's own row increment and then every implied neighbor
    increment (predecessors in graph order, then successors), and
    subtracts the type sum again, so cancellation behaves identically.
    Neighbors whose frame a candidate does *not* implicitly reduce
    contribute an exact-zero increment row, which is a numerical no-op.

    Two internal build paths cover the two batch shapes the schedulers
    produce.  *Narrow* batches — at most two candidate slots per
    operation, the IFDS/system frame-end case — build every
    candidate's override set as increment stacks
    (:func:`increment_stacks`) and replay the scalar
    ``placement_deltas`` accumulation for all of them in one stacked
    pass per type (:func:`replay`).  *Wide* batches (whole-frame FDS
    scans) assemble one flattened occupancy batch per operation
    covering the own row and every neighbor row of every candidate in
    a single :func:`batched_occupancy_rows` call.  In both, a candidate of a
    guarded operation (:attr:`BlockState.guarded_ops`) takes its rows
    from :meth:`BlockState.placement_deltas` verbatim: branch-max
    recombination is not an additive update.

    Attributes:
        candidates: The ``(op_id, start)`` pairs, batch order.
        type_orders: Per candidate, the displaced type names in
            first-occurrence order (own type, then overridden
            predecessors', then overridden successors').
        deltas: Mapping from type name to its ``(n, horizon)``
            displacement matrix; rows of candidates that do not displace
            the type are never consumed (the narrow path leaves them
            uninitialized, the wide path zero).
        participants: Per type, the ascending batch rows that displace
            it — exactly the rows whose ``type_orders`` entry names it.
            Filled by the narrow build only.
        positions: Per type, the type's index in each participant's
            ``type_orders`` entry, aligned with ``participants``.
            Filled by the narrow build only.
    """

    __slots__ = ("candidates", "type_orders", "deltas", "participants", "positions")

    def __init__(self, state: BlockState, candidates: Sequence[Tuple[str, int]]):
        n = len(candidates)
        self.candidates = list(candidates)
        self.type_orders: List[Tuple[str, ...]] = [()] * n
        self.deltas: Dict[str, np.ndarray] = {}
        self.participants: Dict[str, np.ndarray] = {}
        self.positions: Dict[str, np.ndarray] = {}

        # Group batch rows by operation: all of an op's candidate slots
        # share the same neighbor structure and vectorize together.
        groups: Dict[str, List[int]] = {}
        for row, (op_id, _start) in enumerate(candidates):
            groups.setdefault(op_id, []).append(row)

        if n <= 2 * len(groups):
            self._build_narrow(state)
        else:
            self._build_wide(state, groups)

    def _build_narrow(self, state: BlockState) -> None:
        """Stacked replay of the scalar delta accumulation.

        :func:`increment_stacks` turns the batch's override sets into
        per-type increment stacks and :func:`replay` runs the scalar
        round trip for each stack at once, so every row equals
        :meth:`BlockState.placement_deltas` bit for bit.
        """
        dist = state.dist
        type_orders, stacks = increment_stacks(state, self.candidates)
        self.type_orders = type_orders
        # Rows a candidate does not displace are never consumed
        # (``type_orders`` gates every consumer), so the matrices need
        # no zero fill.
        shape = (len(self.candidates), dist.horizon)
        for type_name, stack in stacks.items():
            matrix = np.empty(shape, dtype=float)
            matrix[stack.index[0]] = replay(stack, dist.array(type_name))
            self.deltas[type_name] = matrix
            self.participants[type_name] = stack.index[0]
            self.positions[type_name] = stack.index[1]

    def _build_wide(self, state: BlockState, groups: Dict[str, List[int]]) -> None:
        """Stacked-occupancy path for wide batches (whole-frame scans).

        One flattened :func:`batched_occupancy_rows` call per operation
        covers the operation's own tentative rows and every neighbor's
        implied rows for all candidate starts at once.  Increments of
        neighbor frames a candidate does not implicitly reduce are exact
        zeros (the batched row equals the current row bit for bit), so
        accumulating them is a bitwise no-op and needs no masking.
        Guarded rows are copied from the oracle.
        """
        dist = state.dist
        frames = state.frames
        graph = state.graph
        horizon = dist.horizon
        n = len(self.candidates)
        candidates = self.candidates
        guarded = state.guarded_ops
        for op_id, rows in groups.items():
            if op_id in guarded:
                for row in rows:
                    deltas = state.placement_deltas(op_id, candidates[row][1])
                    self.type_orders[row] = tuple(deltas)
                    for type_name, delta in deltas.items():
                        matrix = self.deltas.get(type_name)
                        if matrix is None:
                            matrix = np.zeros((n, horizon), dtype=float)
                            self.deltas[type_name] = matrix
                        matrix[row] = delta
                continue
            starts = np.asarray([candidates[r][1] for r in rows], dtype=np.int64)
            width = starts.shape[0]
            # Per contribution: (type, los, his, occupancy, current row,
            # overridden mask) in the scalar override-dict order: the
            # operation itself, predecessors, successors.
            specs: List[tuple] = [
                (
                    dist.type_of[op_id],
                    starts,
                    starts,
                    dist.occupancy_of[op_id],
                    dist.row(op_id),
                    None,
                )
            ]
            for pred in graph.predecessors(op_id):
                p_lo, p_hi = frames.frame(pred)
                new_hi = np.minimum(p_hi, starts - frames.latency(pred))
                specs.append(
                    (
                        dist.type_of[pred],
                        np.full_like(starts, p_lo),
                        new_hi,
                        dist.occupancy_of[pred],
                        dist.row(pred),
                        new_hi != p_hi,
                    )
                )
            finishes = starts + frames.latency(op_id)
            for succ in graph.successors(op_id):
                s_lo, s_hi = frames.frame(succ)
                new_lo = np.maximum(s_lo, finishes)
                specs.append(
                    (
                        dist.type_of[succ],
                        new_lo,
                        np.full_like(starts, s_hi),
                        dist.occupancy_of[succ],
                        dist.row(succ),
                        new_lo != s_lo,
                    )
                )

            # One occupancy batch for every (contribution, candidate)
            # row; neighbor frames are implied reductions of feasible
            # frames, so the invariant-checked bounds always hold.
            los = np.concatenate([spec[1] for spec in specs])
            his = np.concatenate([spec[2] for spec in specs])
            occs = np.repeat(
                np.asarray([spec[3] for spec in specs], dtype=np.int64), width
            )
            incs = batched_occupancy_rows(los, his, occs, horizon, validate=False)
            for i, spec in enumerate(specs):
                incs[i * width : (i + 1) * width] -= spec[4]

            # Per-candidate displaced-type order (first occurrence).
            orders: List[List[str]] = [[specs[0][0]] for _ in rows]
            for spec in specs[1:]:
                type_name, mask = spec[0], spec[5]
                for slot, flagged in enumerate(mask):
                    if flagged and type_name not in orders[slot]:
                        orders[slot].append(type_name)
            for slot, row in enumerate(rows):
                self.type_orders[row] = tuple(orders[slot])

            # Accumulate per type through the tentative sum, mirroring
            # tentative_array's  S + inc1 + inc2 ... - S  round trip.
            by_type: Dict[str, List[int]] = {}
            for i, spec in enumerate(specs):
                by_type.setdefault(spec[0], []).append(i)
            contiguous = rows == list(range(rows[0], rows[0] + width))
            row_index = None if contiguous else np.asarray(rows, dtype=np.intp)
            for type_name, spec_ids in by_type.items():
                matrix = self.deltas.get(type_name)
                if matrix is None:
                    matrix = np.zeros((n, horizon), dtype=float)
                    self.deltas[type_name] = matrix
                if row_index is None:
                    view = matrix[rows[0] : rows[0] + width]
                else:
                    view = matrix[row_index]
                base = dist.array(type_name)
                view[:] = base
                for i in spec_ids:
                    view += incs[i * width : (i + 1) * width]
                view -= base
                if row_index is not None:
                    matrix[row_index] = view


class PlacementKernel:
    """Batched local-force evaluator for one block (FDS driver core).

    One :meth:`forces` call returns the weighted Hooke force of placing
    an operation at *every* requested start step: the per-type
    displacement matrices come from :class:`DeltaBatch`, the dots from
    one matrix product per displaced type, guarded operations included.

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

    def forces(self, op_id: str, steps: Sequence[int]) -> List[float]:
        """Forces of tentatively placing ``op_id`` at each of ``steps``."""
        registry_active = _ambient._active is not None
        started = time.perf_counter() if registry_active else 0.0
        batch = DeltaBatch(self.state, [(op_id, step) for step in steps])
        totals = self._fold(batch)
        if registry_active:
            elapsed = time.perf_counter() - started
            width = len(totals)
            if width:
                observe_many(FORCE_EVAL_SECONDS, elapsed / width, width)
        return totals

    def _fold(self, batch: DeltaBatch) -> List[float]:
        """Fold a delta batch into per-candidate weighted force totals."""
        dist = self.state.dist
        contributions: Dict[str, np.ndarray] = {}
        for type_name, matrix in batch.deltas.items():
            weight = self._weight(type_name)
            contributions[type_name] = weight * (
                row_dots(matrix, dist.array(type_name))
                + self.lookahead * row_self_dots(matrix)
            )
        totals: List[float] = []
        evaluations = 0
        for row, order in enumerate(batch.type_orders):
            total = 0.0
            for type_name in order:
                total += float(contributions[type_name][row])
            evaluations += len(order)
            totals.append(total)
        count(FORCE_EVALUATIONS, evaluations)
        return totals
