"""Decision parity of the batched force kernels (docs/performance.md).

The array kernels must change *how* forces are computed, never *which*
reduction wins: a production :class:`ModuloSystemScheduler` run must
make the identical sequence of reduction decisions — same (process,
block, op, side) at every iteration — and land on the same schedules
and area as the scalar, uncached
:class:`~repro.core.reference.ReferenceScheduler`.  Pinned over the
paper workload, a guarded/conditional workload, 20 area-weighted random
systems, and every alignment/balancing mode.

The kernels' batched matrix products are not bitwise-equal to the
scalar dot products (ulp-level), so the winners' forces are compared to
the audit trail's nine-decimal precision while decisions are compared
exactly.
"""

import pytest

from repro.core.periods import PeriodAssignment
from repro.core.reference import ReferenceScheduler
from repro.core.scheduler import ModuloSystemScheduler
from repro.ir.process import Block, Process, SystemSpec
from repro.obs import AuditTrail, Tracer
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

#: Absolute agreement of kernel and scalar forces: the audit precision.
FORCE_TOLERANCE = 1e-9


def run_scheduler(scheduler_class, system, library, assignment, periods, **kwargs):
    """One audited, traced run; returns (decisions, forces, starts, area, counters)."""
    tracer = Tracer()
    audit = AuditTrail(capacity=None, keep_candidates=False)
    scheduler = scheduler_class(library, tracer=tracer, audit=audit, **kwargs)
    result = scheduler.schedule(system, assignment, periods)
    decisions = [
        (e.attrs["process"], e.attrs["block"], e.attrs["op"], e.attrs["side"])
        for e in tracer.events_named("reduction")
    ]
    forces = [(d.force_low, d.force_high, d.score) for d in audit.decisions]
    starts = {key: sched.starts for key, sched in result.block_schedules.items()}
    return (
        decisions,
        forces,
        starts,
        result.total_area(),
        tracer.counters.as_dict(),
    )


def assert_parity(system_factory, library, assignment_factory, periods, **kwargs):
    """Kernel and scalar runs must agree on every decision and its forces."""
    kernel, scalar = (
        run_scheduler(
            scheduler_class,
            system_factory(),
            library,
            assignment_factory(),
            periods,
            **kwargs,
        )
        for scheduler_class in (ModuloSystemScheduler, ReferenceScheduler)
    )
    assert kernel[0] == scalar[0], "reduction sequences diverged"
    assert len(kernel[1]) == len(scalar[1]) == len(kernel[0])
    for iteration, (via_kernel, via_scalar) in enumerate(zip(kernel[1], scalar[1])):
        assert via_kernel == pytest.approx(via_scalar, rel=0, abs=FORCE_TOLERANCE), (
            f"winner forces diverged at iteration {iteration + 1}"
        )
    assert kernel[2] == scalar[2], "final schedules diverged"
    assert kernel[3] == scalar[3], "total area diverged"
    return kernel[4]


def random_workload(seeds, library):
    """Three single-block processes over ``random_dfg(8)``; period 4."""

    def build_system():
        system = SystemSpec(name=f"rand{seeds[0]}")
        for index, seed in enumerate(seeds):
            graph = random_dfg(8, seed=seed)
            deadline = graph.critical_path_length(library.latency_of) + 4
            process = Process(name=f"p{index}")
            process.add_block(Block(name="main", graph=graph, deadline=deadline))
            system.add_process(process)
        return system

    def build_assignment():
        return ResourceAssignment.all_global(library, build_system())

    periods = PeriodAssignment(
        {name: 4 for name in build_assignment().global_types}
    )
    return build_system, library, build_assignment, periods


class TestPaperSystemParity:
    def test_paper_system_identical_decisions_and_schedule(self):
        _system, library = paper_system()

        counters = assert_parity(
            lambda: paper_system()[0],
            library,
            lambda: paper_assignment(library),
            paper_periods(),
            weights=area_weights(library),
        )
        assert counters.get("force_evaluations", 0) > 0


class TestGuardedWorkloadParity:
    def test_mode_switching_system(self):
        """Guarded footprints take the scalar probe inside the kernel
        engine; decisions and winner forces still match the oracle."""
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
        """Area weights scale every type's row in the kernels' folds."""
        library = default_library()
        assert_parity(
            *random_workload([100 * seed + index for index in range(3)], library),
            weights=area_weights(library),
        )


class TestModificationTogglesParity:
    """The kernel engine must agree with the scalar oracle in every
    alignment/balancing mode, not just the full modification."""

    @pytest.mark.parametrize(
        "alignment,balancing",
        [(True, True), (True, False), (False, False)],
    )
    def test_toggle_parity(self, alignment, balancing):
        assert_parity(
            *random_workload([4242 + index for index in range(3)], default_library()),
            periodical_alignment=alignment,
            global_balancing=balancing,
        )
