"""Decision parity of the selection scoreboard (docs/performance.md).

The dirty-cone scoreboard must change *how much work* a selection scan
does, never *which* reduction wins: a production
:class:`ModuloSystemScheduler` run, which rescores only the entries a
commit perturbed, must make the identical sequence of reduction
decisions — same (process, block, op, side) at every iteration — and
land on the same schedules and area as the full per-iteration rescan of
:class:`~repro.core.reference.ReferenceScheduler`.  Pinned over the
paper workload, a guarded/conditional workload with and without global
balancing, 20 seeded four-process random systems, and three scenario
corpus instances.  The paper, random and corpus runs also assert that
the scoreboard actually skips entries, not just agrees.
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
    corpus_system,
    mode_switching_filter,
    paper_assignment,
    paper_periods,
    paper_system,
    random_dfg,
)


def run_scheduler(scheduler_class, system, library, assignment, periods, **kwargs):
    """One traced run; returns (decisions, starts, area, counters)."""
    tracer = Tracer()
    scheduler = scheduler_class(library, tracer=tracer, **kwargs)
    result = scheduler.schedule(system, assignment, periods)
    decisions = [
        (e.attrs["process"], e.attrs["block"], e.attrs["op"], e.attrs["side"])
        for e in tracer.events_named("reduction")
    ]
    starts = {key: sched.starts for key, sched in result.block_schedules.items()}
    return decisions, starts, result.total_area(), tracer.counters.as_dict()


def assert_parity(system_factory, library, assignment_factory, periods, **kwargs):
    """Scoreboard and full-rescan runs must agree decision for decision.

    Returns the production (scoreboard) run's counters.
    """
    board, rescan = (
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
    assert board[0] == rescan[0], "reduction sequences diverged"
    assert board[1] == rescan[1], "final schedules diverged"
    assert board[2] == rescan[2], "total area diverged"
    return board[3]


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
        # The scoreboard must actually skip entries, not just agree.
        assert counters.get("selection_skipped", 0) > 0


class TestGuardedWorkloadParity:
    @pytest.mark.parametrize("balancing", [False, True])
    def test_mode_switching_system(self, balancing):
        """Guarded footprints rescore through the scalar probe path.
        With balancing off no entry subscribes to an ``S`` bump, so the
        rescore set is the dirty cone alone; decisions match either way."""
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
        assert_parity(
            build_system,
            library,
            build_assignment,
            periods,
            global_balancing=balancing,
        )


class TestRandomPopulationParity:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_system(self, seed):
        """Four coupled processes, so commits leave some entries clean."""
        library = default_library()

        def build_system():
            system = SystemSpec(name=f"rand{seed}")
            for index in range(4):
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
        counters = assert_parity(build_system, library, build_assignment, periods)
        assert counters.get("selection_skipped", 0) > 0


class TestCorpusParity:
    """The scenario corpus is the scoreboard's target workload: many
    heterogeneous processes coupled through eleven shared clusters."""

    @pytest.mark.parametrize("processes,seed", [(6, 0), (10, 1), (14, 2)])
    def test_corpus_instance(self, processes, seed):
        instance = corpus_system(processes, seed=seed)
        counters = assert_parity(
            lambda: instance.system,
            instance.library,
            lambda: instance.assignment,
            instance.periods,
        )
        # Corpus commits touch a small dirty cone: most entry visits
        # must be skips for the optimization to be doing its job.
        assert counters["selection_skipped"] > counters["selection_rescored"]
