"""Property tests for the displacement rows (docs/performance.md).

Every displacement row is built from the override sets of
:func:`increment_stacks` as the sum of its increments, so a wrong
override set or sum would show up as a row that differs from the
scalar :meth:`BlockState.placement_deltas` oracle.  Random
frame-end commits drive the paper system, the guarded workload and
random blocks; after every commit each mobile operation's two frame-end
rows must equal the oracle bit for bit, with the displaced types in
first-occurrence order.  A commit reports, as ``dropped_ends``, every
frame end whose override set it may have changed: both ends of the
changed operations and each neighbour's frame end that cut a changed
operation's old frame.  Every other mobile frame end's row must come
out of the commit bit for bit unchanged.  The coupled kernel keeps rows
across commits on that rule; ``tests/core/test_kernel_state.py`` pins
its persistent state.
"""

import numpy as np
import pytest

from repro.ir.operation import OpKind
from repro.ir.process import Block
from repro.resources.library import default_library
from repro.scheduling.kernels import increment_stacks
from repro.scheduling.state import BlockState
from repro.workloads import mode_switching_filter, paper_system, random_dfg

LIBRARY = default_library()

#: Commits driven per block; enough to fix most small blocks.
COMMITS = 40


def expected_order(state, op_id, start):
    """Own type, then the types of the implicitly reduced neighbours
    (predecessors, then successors, graph order), first occurrence."""
    type_of = state.dist.type_of
    order = [type_of[op_id]]
    for oid in state.frames.implied_neighbor_frames(op_id, start):
        if type_of[oid] not in order:
            order.append(type_of[oid])
    return tuple(order)


def frame_end_rows(state, skip):
    """``(op, end) -> (type order, row bytes per type)`` of every
    mobile operation outside ``skip``, end 0 the low frame end."""
    candidates = []
    for op_id in state.frames.unfixed():
        if op_id not in skip:
            lo, hi = state.frames.frame(op_id)
            candidates.extend([(op_id, lo), (op_id, hi)])
    type_orders, stacks = increment_stacks(state, candidates)
    rows = {}
    for type_name, stack in stacks.items():
        for row, delta in zip(stack.index[0].tolist(), stack.delta):
            rows.setdefault(row, {})[type_name] = delta.tobytes()
    return {
        (op_id, row % 2): (type_orders[row], rows[row])
        for row, (op_id, _start) in enumerate(candidates)
    }


def check_frame_ends(state, skip=frozenset()):
    """Every mobile op's frame-end rows against the scalar oracle."""
    candidates = []
    for op_id in state.frames.unfixed():
        if op_id not in skip:
            lo, hi = state.frames.frame(op_id)
            candidates.extend([(op_id, lo), (op_id, hi)])
    if not candidates:
        return
    type_orders, stacks = increment_stacks(state, candidates)
    rows = {}
    for type_name, stack in stacks.items():
        for (row, position), delta in zip(stack.index.T.tolist(), stack.delta):
            assert type_orders[row][position] == type_name
            rows[row, type_name] = delta
    for row, (op_id, start) in enumerate(candidates):
        scalar = state.placement_deltas(op_id, start)
        assert type_orders[row] == expected_order(state, op_id, start)
        assert type_orders[row] == tuple(scalar)
        for type_name, delta in scalar.items():
            got = rows.pop((row, type_name))
            assert got.tobytes() == delta.tobytes(), f"{op_id}@{start} {type_name}"
    assert not rows


def repeats_a_type(state, op_id, start):
    """Whether the placement's override set holds two rows of one type,
    so its displacement row sums several increments."""
    type_of = state.dist.type_of
    implied = state.frames.implied_neighbor_frames(op_id, start)
    types = [type_of[op_id]] + [type_of[oid] for oid in implied]
    return len(types) != len(set(types))


def drive(state, seed):
    """Random frame-end commits, checking the rows after each one.

    Returns how many batches held rows with several overrides of one
    type, so callers can assert the case occurred.
    """
    skip = state.guarded_ops
    rng = np.random.default_rng(seed)
    multi = 0
    check_frame_ends(state, skip)
    for _ in range(COMMITS):
        mobile = state.frames.unfixed()
        if not mobile:
            break
        op_id = mobile[int(rng.integers(len(mobile)))]
        lo, hi = state.frames.frame(op_id)
        before = frame_end_rows(state, skip)
        if rng.integers(2):
            effect = state.commit_reduce_effect(op_id, lo + 1, hi)
        else:
            effect = state.commit_reduce_effect(op_id, lo, hi - 1)
        assert effect.changed_ops <= effect.dropped_ops
        check_frame_ends(state, skip)
        after = frame_end_rows(state, skip)
        for key, rows in after.items():
            if key not in effect.dropped_ends:
                assert rows == before[key], f"{key} moved but was not dropped"
        multi += any(
            repeats_a_type(state, op_id, end)
            for op_id in state.frames.unfixed()
            if op_id not in skip
            for end in state.frames.frame(op_id)
        )
    return multi


def states_of(system, library):
    return [BlockState(block, library) for _process, block in system.iter_blocks()]


def guarded_state():
    """The mode-switching filter plus an unguarded subtracter tail, so
    commits on guarded operations propagate into kernel-evaluated ones."""
    graph = mode_switching_filter(4, name="modal")
    prev = "scale"
    for index in range(3):
        op = graph.add(f"post{index}", OpKind.SUB)
        graph.add_edge(prev, op.op_id)
        prev = op.op_id
    deadline = graph.critical_path_length(LIBRARY.latency_of) + 4
    return BlockState(Block(name="modal", graph=graph, deadline=deadline), LIBRARY)


def random_state(seed):
    graph = random_dfg(12, seed=seed)
    deadline = graph.critical_path_length(LIBRARY.latency_of) + 5
    return BlockState(Block(name=f"r{seed}", graph=graph, deadline=deadline), LIBRARY)


def test_paper_system_rows_match_oracle_after_every_commit():
    system, library = paper_system()
    multi = 0
    for seed, state in enumerate(states_of(system, library)):
        multi += drive(state, seed)
    # The adder chains must produce rows with several overrides of one
    # type.
    assert multi > 0


def test_guarded_workload_rows_match_oracle_after_every_commit():
    state = guarded_state()
    skip = state.guarded_ops
    assert skip and set(state.frames.unfixed()) - skip
    drive(state, 7)


@pytest.mark.parametrize("seed", range(10))
def test_random_block_rows_match_oracle_after_every_commit(seed):
    drive(random_state(seed), seed)


def test_commit_moving_only_a_neighbour_drops_the_record():
    """The op's own frame stays put, but its override set holds the old
    row of a neighbour whose frame the commit moved: the commit must
    report the op as dropped."""
    system, library = paper_system()
    for index, block_state in enumerate(states_of(system, library)):
        for op_id in block_state.frames.unfixed():
            _latency, preds, succs = block_state.links[op_id]
            for neighbour in [pred for pred, _ in preds] + list(succs):
                n_lo, n_hi = block_state.frames.frame(neighbour)
                for bounds in ((n_lo + 1, n_hi), (n_lo, n_hi - 1)):
                    if bounds[0] > bounds[1]:
                        continue
                    state = states_of(system, library)[index]
                    lo, hi = state.frames.frame(op_id)
                    if not any(
                        neighbour in state.frames.implied_neighbor_frames(op_id, end)
                        for end in (lo, hi)
                    ):
                        continue
                    old_row = state.dist.row(neighbour)
                    effect = state.commit_reduce_effect(neighbour, *bounds)
                    if effect.changed_ops != {neighbour}:
                        continue
                    assert state.frames.frame(op_id) == (lo, hi)
                    assert state.dist.row(neighbour) is not old_row
                    assert op_id in effect.dropped_ops
                    check_frame_ends(state, state.guarded_ops)
                    return
    raise AssertionError("no neighbour-only commit found")
