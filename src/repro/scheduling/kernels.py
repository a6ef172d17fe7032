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
* :class:`DeltaBatch` builds the per-type displacement matrices for a
  whole candidate batch, value-identical per row to
  :meth:`BlockState.placement_deltas`;
* :class:`PlacementKernel` is the FDS driver: one call returns the
  forces of every start step in an operation's frame.

Exactness contract
------------------
Displacement construction is purely elementwise (subtract, add, masked
zero rows), so every ``DeltaBatch`` row is **bit-identical** to the
scalar path's delta for the same candidate.  The force *dots* are
batched matrix products, and BLAS matrix–vector products are not
bitwise-identical to a sequence of ``np.dot`` calls (ulp-level
differences, empirically ~1e-16).  Decisions in every scheduler compare
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
the same per-type matrices and folded by the same products.
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
    operation, the IFDS/system frame-end case — read each candidate's
    override set from the state's displacement row table
    (:meth:`BlockState.displacement_record`) and replay the scalar
    ``placement_deltas`` accumulation for all of them in one stacked
    pass.  *Wide* batches (whole-frame FDS scans) assemble one flattened
    occupancy batch per operation covering the own row and every
    neighbor row of every candidate in a single
    :func:`batched_occupancy_rows` call.  In both, a candidate of a
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

        Each unguarded row reproduces bit for bit what
        :meth:`BlockState.placement_deltas` computes: the scalar
        ``tentative_array`` round trip ``((S + inc_1) + inc_2 ...) - S``,
        with ``inc_k = new_k - old_k`` in override order.  The round trip
        runs for every (candidate, type) pair of the batch at once,
        grouped by type: the first increments stack into one matrix, each
        type's block adds its distribution (IEEE addition commutes, so
        ``inc_1 + S`` equals ``S + inc_1``), the further increments add
        into their pairs, and one subtraction per type closes the trip.
        Guarded rows skip the replay and are copied from the oracle.
        """
        dist = state.dist
        guarded = state.guarded_ops
        type_orders = self.type_orders
        # Per type: participant rows, type-order positions, and the
        # first (override, current) rows of the replayed participants,
        # in candidate order.
        by_type: Dict[str, Tuple[List[int], List[int], List[np.ndarray]]] = {}
        # Per type: guarded participant rows and their oracle deltas.
        verbatim: Dict[str, Tuple[List[int], List[np.ndarray]]] = {}
        # Further overrides: (type, replayed index) and their rows.
        extra_at: List[Tuple[str, int]] = []
        extra_flat: List[np.ndarray] = []
        for row, (op_id, start) in enumerate(self.candidates):
            if op_id in guarded:
                deltas = state.placement_deltas(op_id, start)
                type_orders[row] = tuple(deltas)
                for position, (type_name, delta) in enumerate(deltas.items()):
                    group = by_type.get(type_name)
                    if group is None:
                        group = by_type[type_name] = ([], [], [])
                    group[0].append(row)
                    group[1].append(position)
                    copied = verbatim.setdefault(type_name, ([], []))
                    copied[0].append(row)
                    copied[1].append(delta)
                continue
            order, rows, more = state.displacement_record(op_id, start)
            type_orders[row] = order
            i = 0
            for position, type_name in enumerate(order):
                group = by_type.get(type_name)
                if group is None:
                    group = by_type[type_name] = ([], [], [])
                group[0].append(row)
                group[1].append(position)
                group[2].append(rows[i])
                group[2].append(rows[i + 1])
                i += 2
            if more:
                spots, extra_rows = more
                for spot in spots:
                    type_name = order[spot]
                    extra_at.append((type_name, len(by_type[type_name][2]) // 2 - 1))
                extra_flat.extend(extra_rows)
        if not by_type:
            return

        horizon = dist.horizon
        offsets: Dict[str, int] = {}
        flat: List[np.ndarray] = []
        for type_name, (_rows, _positions, pair_rows) in by_type.items():
            offsets[type_name] = len(flat) // 2
            flat.extend(pair_rows)
        if flat:
            pairs = np.concatenate(flat).reshape(-1, 2, horizon)
            stacked = pairs[:, 0] - pairs[:, 1]
            for type_name, offset in offsets.items():
                stacked[
                    offset : offset + len(by_type[type_name][2]) // 2
                ] += dist.array(type_name)
        if extra_at:
            # ``add.at`` applies repeated indices one after another in
            # index order, i.e. each pair's further increments in
            # override order.
            more_pairs = np.concatenate(extra_flat).reshape(-1, 2, horizon)
            np.add.at(
                stacked,
                [offsets[type_name] + index for type_name, index in extra_at],
                more_pairs[:, 0] - more_pairs[:, 1],
            )

        # Rows a candidate does not displace are never consumed
        # (``type_orders`` gates every consumer), so the matrices need
        # no zero fill.
        shape = (len(self.candidates), horizon)
        for type_name, (rows_of, positions, pair_rows) in by_type.items():
            participants = np.asarray(rows_of, dtype=np.intp)
            matrix = np.empty(shape, dtype=float)
            copied = verbatim.get(type_name)
            replayed = participants
            if copied is not None:
                matrix[copied[0]] = copied[1]
                replayed = np.setdiff1d(participants, copied[0])
            if pair_rows:
                offset = offsets[type_name]
                block = stacked[offset : offset + len(pair_rows) // 2]
                block -= dist.array(type_name)
                matrix[replayed] = block
            self.deltas[type_name] = matrix
            self.participants[type_name] = participants
            self.positions[type_name] = np.asarray(positions, dtype=np.intp)

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
