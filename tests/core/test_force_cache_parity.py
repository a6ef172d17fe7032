"""Decision parity of the incremental force cache (docs/performance.md).

The per-block force caches must change *when* forces are computed,
never *what* they evaluate to: a production :class:`ModuloSystemScheduler`
run must make the identical sequence of reduction decisions — same
(process, block, op, side) at every iteration — and land on the same
final schedule and area as the brute-force
:class:`~repro.core.reference.ReferenceScheduler`, which evaluates every
candidate afresh every iteration.  Pinned over the paper workload, a
guarded/conditional workload, and a population of seeded random systems.
"""

import pytest

from repro.core.periods import PeriodAssignment
from repro.core.reference import ReferenceScheduler
from repro.core.scheduler import ModuloSystemScheduler
from repro.ir.process import Block, Process, SystemSpec
from repro.obs import Tracer
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.scheduling.forces import area_weights
from repro.workloads import (
    mode_switching_filter,
    paper_assignment,
    paper_periods,
    paper_system,
    random_dfg,
)


def run_scheduler(scheduler_class, system, library, assignment, periods, weights):
    """One traced run; returns (decisions, starts, area, counters)."""
    tracer = Tracer()
    scheduler = scheduler_class(library, weights=weights, tracer=tracer)
    result = scheduler.schedule(system, assignment, periods)
    decisions = [
        (e.attrs["process"], e.attrs["block"], e.attrs["op"], e.attrs["side"])
        for e in tracer.events_named("reduction")
    ]
    starts = {key: sched.starts for key, sched in result.block_schedules.items()}
    return decisions, starts, result.total_area(), tracer.counters.as_dict()


def assert_parity(system_factory, library, assignment_factory, periods, weights=None):
    """Cached and brute-force runs must agree on every decision and result.

    Factories rebuild the system/assignment per run so no state leaks
    between the two; returns the (production, oracle) counters.
    """
    cached, brute = (
        run_scheduler(
            scheduler_class,
            system_factory(),
            library,
            assignment_factory(),
            periods,
            weights,
        )
        for scheduler_class in (ModuloSystemScheduler, ReferenceScheduler)
    )
    assert cached[0] == brute[0], "reduction sequences diverged"
    assert cached[1] == brute[1], "final schedules diverged"
    assert cached[2] == brute[2], "total area diverged"
    return cached[3], brute[3]


class TestPaperSystemParity:
    def test_paper_system_identical_decisions_and_schedule(self):
        _system, library = paper_system()

        cached_counters, brute_counters = assert_parity(
            lambda: paper_system()[0],
            library,
            lambda: paper_assignment(library),
            paper_periods(),
            weights=area_weights(library),
        )
        assert (
            cached_counters["force_evaluations"]
            < brute_counters["force_evaluations"]
        )
        assert cached_counters.get("force_cache_hits", 0) > 0
        assert "force_cache_hits" not in brute_counters


class TestGuardedWorkloadParity:
    def test_mode_switching_system(self):
        """Guarded ops (mutually exclusive paths) go through the same
        dirty-set rules as unconditional ones."""
        library = default_library()

        def build_system():
            system = SystemSpec(name="modal")
            for index, taps in enumerate((3, 4)):
                graph = mode_switching_filter(taps, name=f"g{index}")
                deadline = graph.critical_path_length(library.latency_of) + 4
                process = Process(name=f"p{index}")
                process.add_block(
                    Block(name="main", graph=graph, deadline=deadline)
                )
                system.add_process(process)
            return system

        def build_assignment():
            return ResourceAssignment.all_global(library, build_system())

        periods = PeriodAssignment(
            {name: 3 for name in build_assignment().global_types}
        )
        assert_parity(build_system, library, build_assignment, periods)


class TestRandomPopulationParity:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_system(self, seed):
        library = default_library()

        def build_system():
            system = SystemSpec(name=f"rand{seed}")
            for index in range(3):
                graph = random_dfg(8, seed=100 * seed + index)
                deadline = graph.critical_path_length(library.latency_of) + 4
                process = Process(name=f"p{index}")
                process.add_block(
                    Block(name="main", graph=graph, deadline=deadline)
                )
                system.add_process(process)
            return system

        def build_assignment():
            return ResourceAssignment.all_global(library, build_system())

        periods = PeriodAssignment(
            {name: 4 for name in build_assignment().global_types}
        )
        assert_parity(build_system, library, build_assignment, periods)


class TestLocalForceDelegation:
    def test_scheduler_force_matches_shared_kernel_without_globals(self):
        """With no global types the oracle's placement force must equal
        :func:`repro.scheduling.forces.placement_force` — the scheduler
        delegates purely-local evaluation to the shared kernel rather
        than duplicating it."""
        from repro.core.scheduler import _Entry, _GlobalCoupling
        from repro.scheduling.forces import placement_force
        from repro.scheduling.state import BlockState

        library = default_library()
        graph = random_dfg(10, seed=7)
        deadline = graph.critical_path_length(library.latency_of) + 5
        block = Block(name="main", graph=graph, deadline=deadline)

        scheduler = ReferenceScheduler(library)
        assignment = ResourceAssignment.all_local(library)
        entries = [_Entry("p0", block, BlockState(block, library))]
        coupling = _GlobalCoupling(entries, assignment, PeriodAssignment({}))
        entry = entries[0]
        for op_id in entry.state.frames.unfixed():
            lo, hi = entry.state.frames.frame(op_id)
            for step in (lo, hi):
                via_scheduler = scheduler._placement_force(
                    0, entry, coupling, op_id, step
                )
                via_kernel = placement_force(
                    entry.state, op_id, step, lookahead=scheduler.lookahead
                )
                assert via_scheduler == via_kernel
