"""Property tests for the batched force kernels (docs/performance.md).

The kernels promise two different strengths of agreement with the
scalar reference path, and these tests pin both:

* **bit-exact** — modulo folds and the displacement rows of
  :func:`increment_stacks` are elementwise constructions and must
  equal the scalar results bit for bit, on arbitrary frames and
  periods (``assert_array_equal``, no tolerance);
* **decision-level** — force totals go through batched matrix products
  whose BLAS summation order may differ from the scalar ``np.dot``
  sequence by ulps; they are compared against an epsilon far below the
  ``1e-12`` decision threshold every scheduler uses.

Edge cases named by the kernel contracts are covered explicitly:
empty candidate batches, single-slot frames, guarded (modal)
candidates batched beside unguarded ones, and dtype stability.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from repro.core.modulo import modulo_max_reference, modulo_max_rows
from repro.ir.operation import OpKind
from repro.ir.process import Block
from repro.resources.library import default_library
from repro.scheduling.forces import placement_force
from repro.scheduling.kernels import (
    PlacementKernel,
    increment_stacks,
    row_dots,
    row_self_dots,
)
from repro.scheduling.state import BlockState
from repro.workloads import mode_switching_filter, random_dfg

LIBRARY = default_library()

#: Decisions compare forces against 1e-12; batching noise is ~1e-16.
DECISION_EPS = 1e-12


def random_state(seed, ops=8, slack=5):
    """A BlockState over a random DFG with a feasible deadline."""
    graph = random_dfg(ops, seed=seed)
    deadline = graph.critical_path_length(LIBRARY.latency_of) + slack
    return BlockState(Block(name=f"b{seed}", graph=graph, deadline=deadline), LIBRARY)


def scrambled_state(seed, reductions=3):
    """A random state after a few committed reductions (mixed frames)."""
    state = random_state(seed)
    rng = np.random.default_rng(seed)
    for _ in range(reductions):
        mobile = state.frames.unfixed()
        if not mobile:
            break
        op_id = mobile[int(rng.integers(len(mobile)))]
        lo, hi = state.frames.frame(op_id)
        if rng.integers(2):
            state.commit_reduce_effect(op_id, lo + 1, hi)
        else:
            state.commit_reduce_effect(op_id, lo, hi - 1)
    return state


# ---------------------------------------------------------------------------
# modulo_max_rows
# ---------------------------------------------------------------------------
@given(
    matrix=st.lists(
        st.lists(
            st.floats(
                min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
            ),
            min_size=0,
            max_size=17,
        ),
        min_size=0,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) <= 1),
    period=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
def test_modulo_max_rows_bit_match_reference(matrix, period):
    horizon = len(matrix[0]) if matrix else 0
    rows = np.asarray(matrix, dtype=float).reshape(len(matrix), horizon)
    folded = modulo_max_rows(rows, period)
    assert folded.shape == (len(matrix), period)
    assert folded.dtype == np.float64
    for i, row in enumerate(rows):
        assert_array_equal(folded[i], modulo_max_reference(row, period))


def test_modulo_max_rows_int_dtype_stable():
    rows = np.asarray([[3, -1, 2, 5, 0], [1, 1, 1, 1, 1]], dtype=np.int64)
    folded = modulo_max_rows(rows, 2)
    assert folded.dtype == np.int64
    for i, row in enumerate(rows):
        assert_array_equal(folded[i], modulo_max_reference(row, 2))


def test_modulo_max_rows_horizon_shorter_than_period():
    rows = np.asarray([[2.0, -3.0]])
    assert_array_equal(modulo_max_rows(rows, 5)[0], modulo_max_reference(rows[0], 5))


# ---------------------------------------------------------------------------
# row dot helpers
# ---------------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_row_dot_helpers_match_scalar_dots(seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(5, 9))
    vector = rng.normal(size=9)
    dots = row_dots(matrix, vector)
    selfs = row_self_dots(matrix)
    for i in range(matrix.shape[0]):
        assert abs(dots[i] - float(np.dot(matrix[i], vector))) < DECISION_EPS
        assert abs(selfs[i] - float(np.dot(matrix[i], matrix[i]))) < DECISION_EPS


# ---------------------------------------------------------------------------
# Delta batches: stack deltas vs BlockState.placement_deltas (bit parity)
# ---------------------------------------------------------------------------
def assert_batch_matches_scalar(state, candidates):
    """Checks every stack row of the batch, and each candidate's type
    order, against the scalar oracle."""
    type_orders, stacks = increment_stacks(state, candidates)
    assert len(type_orders) == len(candidates)
    horizon = state.dist.horizon
    rows = {}
    for type_name, (batch_rows, positions, deltas) in stacks.items():
        assert deltas.shape == (len(batch_rows), horizon)
        assert len(positions) == len(batch_rows)
        assert deltas.dtype == np.float64
        pairs = zip(batch_rows.tolist(), positions.tolist())
        for (row, position), delta in zip(pairs, deltas):
            assert type_orders[row][position] == type_name
            assert (row, type_name) not in rows, "one stack row per displacement"
            rows[row, type_name] = delta
    for row, (op_id, start) in enumerate(candidates):
        scalar = state.placement_deltas(op_id, start)
        # Both list the displaced types in first-occurrence order.
        assert type_orders[row] == tuple(scalar)
        for type_name, delta in scalar.items():
            assert_array_equal(
                rows.pop((row, type_name)),
                delta,
                err_msg=f"{op_id}@{start} type {type_name}",
            )
    # No stack row belongs to a type its candidate does not displace.
    assert not rows


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_delta_batch_narrow_bit_parity(seed):
    """Frame-end batches (IFDS shape) sum increments like the oracle."""
    state = scrambled_state(seed)
    candidates = []
    for op_id in state.frames.unfixed():
        if op_id in state.guarded_ops:
            continue
        lo, hi = state.frames.frame(op_id)
        candidates.extend([(op_id, lo), (op_id, hi)])
    if candidates:
        assert_batch_matches_scalar(state, candidates)


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_delta_batch_wide_bit_parity(seed):
    """Whole-frame batches (FDS shape) sum the same increments."""
    state = scrambled_state(seed)
    candidates = []
    for op_id in state.frames.unfixed():
        if op_id in state.guarded_ops:
            continue
        lo, hi = state.frames.frame(op_id)
        candidates.extend((op_id, step) for step in range(lo, hi + 1))
    if candidates:
        assert_batch_matches_scalar(state, candidates)


def test_delta_batch_empty_candidates():
    state = random_state(0)
    type_orders, stacks = increment_stacks(state, [])
    assert stacks == {}
    assert type_orders == []


def test_delta_batch_single_slot_frame():
    state = random_state(1)
    op_id = state.frames.unfixed()[0]
    lo, _hi = state.frames.frame(op_id)
    state.commit_reduce_effect(op_id, lo, lo)
    assert_batch_matches_scalar(state, [(op_id, lo), (op_id, lo)])


def test_delta_batch_dtype_stability():
    state = random_state(2)
    op_id = state.frames.unfixed()[0]
    lo, hi = state.frames.frame(op_id)
    # The helper checks the rows' dtype.
    assert_batch_matches_scalar(state, [(op_id, lo), (op_id, hi)])


# ---------------------------------------------------------------------------
# PlacementKernel vs placement_force
# ---------------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_placement_kernel_decision_level_parity(seed):
    state = scrambled_state(seed)
    kernel = PlacementKernel(state)
    for op_id in state.frames.unfixed():
        lo, hi = state.frames.frame(op_id)
        steps = range(lo, hi + 1)
        batched = kernel.forces([(op_id, step) for step in steps])
        scalar = [placement_force(state, op_id, step) for step in steps]
        assert len(batched) == len(scalar)
        for got, want in zip(batched, scalar):
            assert abs(got - want) < DECISION_EPS


def modal_state(reductions=0, seed=0):
    """The mode-switching filter plus an unguarded subtracter tail, so
    one block holds guarded and unguarded operations; optionally after
    a few random frame-end commits."""
    graph = mode_switching_filter(4, name="modal")
    prev = "scale"
    for index in range(3):
        op = graph.add(f"post{index}", OpKind.SUB)
        graph.add_edge(prev, op.op_id)
        prev = op.op_id
    deadline = graph.critical_path_length(LIBRARY.latency_of) + 4
    state = BlockState(Block(name="modal", graph=graph, deadline=deadline), LIBRARY)
    rng = np.random.default_rng(seed)
    for _ in range(reductions):
        mobile = state.frames.unfixed()
        op_id = mobile[int(rng.integers(len(mobile)))]
        lo, hi = state.frames.frame(op_id)
        if rng.integers(2):
            state.commit_reduce_effect(op_id, lo + 1, hi)
        else:
            state.commit_reduce_effect(op_id, lo, hi - 1)
    return state


def assert_mixes_guarded(state, candidates):
    ops = {op_id for op_id, _start in candidates}
    assert ops & state.guarded_ops, "batch must hold guarded candidates"
    assert ops - state.guarded_ops, "batch must hold unguarded candidates"


def displaces_a_guarded_type(state, candidates):
    """Whether some guarded candidate displaces a guarded type, i.e.
    the batch holds a branch-max row."""
    return any(
        state.dist.has_guards(type_name)
        for op_id, start in candidates
        if op_id in state.guarded_ops
        for type_name in state.placement_deltas(op_id, start)
    )


@pytest.mark.parametrize("reductions", [0, 3])
def test_delta_batch_narrow_mixes_guarded_candidates(reductions):
    """Guarded rows are the oracle's branch-max rows, in the same
    per-type stacks as the summed unguarded rows."""
    state = modal_state(reductions, seed=reductions)
    candidates = []
    for op_id in state.frames.unfixed():
        lo, hi = state.frames.frame(op_id)
        candidates.extend([(op_id, lo), (op_id, hi)])
    assert_mixes_guarded(state, candidates)
    assert_batch_matches_scalar(state, candidates)
    assert displaces_a_guarded_type(state, candidates)


@pytest.mark.parametrize("reductions", [0, 3])
def test_delta_batch_wide_mixes_guarded_candidates(reductions):
    state = modal_state(reductions, seed=reductions)
    candidates = []
    for op_id in state.frames.unfixed():
        lo, hi = state.frames.frame(op_id)
        candidates.extend((op_id, step) for step in range(lo, hi + 1))
    assert len(candidates) > 2 * len(state.frames.unfixed()), "wide batch shape"
    assert_mixes_guarded(state, candidates)
    assert_batch_matches_scalar(state, candidates)
    assert displaces_a_guarded_type(state, candidates)


def test_placement_kernel_guarded_decision_level_parity():
    """Guarded ops go through the batch kernel too; their forces agree
    with the scalar placement_force at the decision level."""
    graph = mode_switching_filter(4, name="modal")
    deadline = graph.critical_path_length(LIBRARY.latency_of) + 4
    state = BlockState(Block(name="m", graph=graph, deadline=deadline), LIBRARY)
    kernel = PlacementKernel(state)
    assert state.guarded_ops, "modal workload must have a guarded footprint"
    for op_id in sorted(state.guarded_ops):
        lo, hi = state.frames.frame(op_id)
        batched = kernel.forces([(op_id, step) for step in range(lo, hi + 1)])
        for step, got in zip(range(lo, hi + 1), batched):
            assert abs(got - placement_force(state, op_id, step)) < DECISION_EPS
