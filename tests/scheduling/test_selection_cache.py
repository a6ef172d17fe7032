"""FDS and IFDS replay brute-force scalar decisions exactly."""

import pytest

from repro.ir.operation import OpKind
from repro.ir.process import Block
from repro.obs import Tracer
from repro.resources.library import default_library
from repro.scheduling.fds import ForceDirectedScheduler
from repro.scheduling.forces import placement_force
from repro.scheduling.ifds import ImprovedForceDirectedScheduler, evaluate_reduction
from repro.scheduling.state import BlockState
from repro.workloads import elliptic_wave_filter, mode_switching_filter, random_dfg


@pytest.fixture
def library():
    return default_library()


def single_block(seed, slack, library):
    graph = random_dfg(10, seed=seed)
    deadline = graph.critical_path_length(library.latency_of) + slack
    return Block(name=f"b{seed}", graph=graph, deadline=deadline)


def modal_block(library):
    """The mode-switching filter plus an unguarded subtracter tail: one
    block holding guarded and unguarded operations."""
    graph = mode_switching_filter(4, name="modal")
    prev = "scale"
    for index in range(3):
        op = graph.add(f"post{index}", OpKind.SUB)
        graph.add_edge(prev, op.op_id)
        prev = op.op_id
    deadline = graph.critical_path_length(library.latency_of) + 4
    return Block(name="modal", graph=graph, deadline=deadline)


def fds_block(case, library):
    """A random block by seed, or one of the named wider inputs."""
    if case == "modal":
        return modal_block(library)
    if case == "ewf24":
        return Block(name="ewf", graph=elliptic_wave_filter(), deadline=24)
    return single_block(case, 4, library)


def brute_force_ifds(block, library):
    """IFDS with a fresh scalar :func:`evaluate_reduction` per candidate
    and iteration; returns (decisions, starts)."""
    state = BlockState(block, library)
    decisions = []
    while True:
        mobile = state.frames.unfixed()
        if not mobile:
            break
        best = None
        for op_id in mobile:
            choice = evaluate_reduction(state, op_id)
            if best is None or choice.score > best.score + 1e-12:
                best = choice
        lo, hi = state.frames.frame(best.op_id)
        if best.shrink_low_side:
            state.commit_reduce_effect(best.op_id, lo + 1, hi)
        else:
            state.commit_reduce_effect(best.op_id, lo, hi - 1)
        decisions.append(
            (best.op_id, "low" if best.shrink_low_side else "high")
        )
    return decisions, state.frames.as_schedule()


def brute_force_fds(block, library):
    """FDS with a fresh scalar :func:`placement_force` per (op, step)
    and iteration; returns (decisions, starts)."""
    state = BlockState(block, library)
    decisions = []
    while True:
        candidates = state.frames.unfixed()
        if not candidates:
            break
        best_force = best_op = best_step = None
        for op_id in candidates:
            lo, hi = state.frames.frame(op_id)
            for step in range(lo, hi + 1):
                force = placement_force(state, op_id, step)
                if best_force is None or force < best_force - 1e-12:
                    best_force, best_op, best_step = force, op_id, step
        state.commit_reduce_effect(best_op, best_step, best_step)
        decisions.append((best_op, best_step))
    return decisions, state.frames.as_schedule()


class TestSchedulerParity:
    """Cached single-block schedulers replay brute-force decisions exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_ifds_parity(self, seed, library):
        tracer = Tracer()
        scheduler = ImprovedForceDirectedScheduler(library, tracer=tracer)
        schedule = scheduler.schedule(single_block(seed, 4, library))
        decisions = [
            (e.attrs["op"], e.attrs["side"])
            for e in tracer.events_named("reduction")
        ]
        assert (decisions, schedule.starts) == brute_force_ifds(
            single_block(seed, 4, library), library
        )

    @pytest.mark.parametrize("seed", [*range(8), "modal", "ewf24"])
    def test_fds_parity(self, seed, library):
        tracer = Tracer()
        scheduler = ForceDirectedScheduler(library, tracer=tracer)
        schedule = scheduler.schedule(fds_block(seed, library))
        decisions = [
            (e.attrs["op"], e.attrs["step"])
            for e in tracer.events_named("placement")
        ]
        assert (decisions, schedule.starts) == brute_force_fds(
            fds_block(seed, library), library
        )

    def test_ifds_cache_saves_evaluations(self, library):
        tracer = Tracer()
        ImprovedForceDirectedScheduler(library, tracer=tracer).schedule(
            single_block(3, 6, library)
        )
        cached = tracer.counters.as_dict()["force_evaluations"]
        brute = Tracer()
        with brute.activate():
            brute_force_ifds(single_block(3, 6, library), library)
        assert cached < brute.counters.as_dict()["force_evaluations"]
