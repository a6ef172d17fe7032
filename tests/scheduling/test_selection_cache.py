"""Tests for the selection cache and its use by the FDS/IFDS schedulers."""

import pytest

from repro.ir.dfg import DataFlowGraph
from repro.ir.operation import OpKind
from repro.ir.process import Block
from repro.obs import Tracer
from repro.resources.library import default_library
from repro.scheduling.fds import ForceDirectedScheduler
from repro.scheduling.forces import placement_force
from repro.scheduling.ifds import ImprovedForceDirectedScheduler, evaluate_reduction
from repro.scheduling.selection_cache import BlockSelectionCache
from repro.scheduling.state import BlockState, ReductionEffect
from repro.workloads import random_dfg


def diamond_block(deadline=6):
    """a -> {m, s} -> z : every op has at least one neighbor."""
    graph = DataFlowGraph(name="d")
    graph.add("a", OpKind.ADD)
    graph.add("m", OpKind.MUL)
    graph.add("s", OpKind.SUB)
    graph.add("z", OpKind.ADD)
    graph.add_edges([("a", "m"), ("a", "s"), ("m", "z"), ("s", "z")])
    return Block(name="b", graph=graph, deadline=deadline)


@pytest.fixture
def library():
    return default_library()


class TestBlockSelectionCache:
    def test_get_put_roundtrip(self, library):
        state = BlockState(diamond_block(), library)
        cache = BlockSelectionCache(state)
        assert cache.get("a") is None
        cache.put("a", 1.25)
        assert cache.get("a") == 1.25
        assert len(cache) == 1

    def test_changed_op_and_neighbors_dropped(self, library):
        state = BlockState(diamond_block(), library)
        cache = BlockSelectionCache(state)
        for op in ("a", "m", "s", "z"):
            cache.put(op, op)
        # m changed: m itself plus its neighbors a and z go dirty; s
        # survives only if its footprint avoids the touched types.
        effect = ReductionEffect(
            changed_ops=frozenset({"m"}), touched_types=frozenset()
        )
        cache.invalidate_after_commit(effect)
        assert cache.get("m") is None
        assert cache.get("a") is None
        assert cache.get("z") is None
        assert cache.get("s") == "s"

    def test_touched_type_drops_footprint_ops(self, library):
        state = BlockState(diamond_block(), library)
        cache = BlockSelectionCache(state)
        for op in ("a", "m", "s", "z"):
            cache.put(op, op)
        # multiplier footprint: m itself, plus a and z (m is their
        # direct neighbor); s has no multiplier in its footprint.
        effect = ReductionEffect(
            changed_ops=frozenset(), touched_types=frozenset({"multiplier"})
        )
        cache.invalidate_after_commit(effect)
        assert cache.get("m") is None
        assert cache.get("a") is None
        assert cache.get("z") is None
        assert cache.get("s") == "s"

    def test_invalidate_type(self, library):
        state = BlockState(diamond_block(), library)
        cache = BlockSelectionCache(state)
        for op in ("a", "m", "s", "z"):
            cache.put(op, op)
        removed = cache.invalidate_type("subtracter")
        # subtracter footprint: s itself plus its neighbors a and z.
        assert removed == 3
        assert cache.get("s") is None
        assert cache.get("m") == "m"

    def test_counters(self, library):
        state = BlockState(diamond_block(), library)
        cache = BlockSelectionCache(state)
        tracer = Tracer()
        with tracer.activate():
            cache.get("a")
            cache.put("a", 1.0)
            cache.get("a")
            cache.invalidate_ops(["a"])
        counters = tracer.counters.as_dict()
        assert counters["force_cache_misses"] == 1
        assert counters["force_cache_hits"] == 1
        assert counters["force_cache_invalidations"] == 1


def single_block(seed, slack, library):
    graph = random_dfg(10, seed=seed)
    deadline = graph.critical_path_length(library.latency_of) + slack
    return Block(name=f"b{seed}", graph=graph, deadline=deadline)


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
            choice = evaluate_reduction(state, op_id, kernel=None)
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

    @pytest.mark.parametrize("seed", range(8))
    def test_fds_parity(self, seed, library):
        tracer = Tracer()
        scheduler = ForceDirectedScheduler(library, tracer=tracer)
        schedule = scheduler.schedule(single_block(seed, 4, library))
        decisions = [
            (e.attrs["op"], e.attrs["step"])
            for e in tracer.events_named("placement")
        ]
        assert (decisions, schedule.starts) == brute_force_fds(
            single_block(seed, 4, library), library
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
