"""The coupled scheduler without coupling is per-block IFDS (§5).

With no global types, or with periodical alignment disabled, no force
term couples two blocks: periodical alignment and global balancing are
the only cross-block terms.  Every block's final starts must then equal
a brute-force single-block IFDS run, a fresh scalar
:func:`~repro.scheduling.ifds.evaluate_reduction` per mobile operation
and iteration.  :class:`~repro.scheduling.ifds.ImprovedForceDirectedScheduler`
relies on this: it schedules a lone block through
:class:`~repro.core.scheduler.ModuloSystemScheduler`.
"""

from pathlib import Path

import pytest

from repro.api import load_problem
from repro.core.periods import PeriodAssignment
from repro.core.scheduler import ModuloSystemScheduler
from repro.ir.process import Block, Process, SystemSpec
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.scheduling.forces import area_weights
from repro.scheduling.ifds import evaluate_reduction
from repro.scheduling.state import BlockState
from repro.workloads import paper_assignment, paper_periods, paper_system, random_dfg

EXAMPLES = sorted(Path(__file__).resolve().parents[2].glob("examples/*.sys"))


def brute_force_ifds(block, library, weights):
    """Scalar IFDS on one block; returns its final starts."""
    state = BlockState(block, library)
    while True:
        mobile = state.frames.unfixed()
        if not mobile:
            return state.frames.as_schedule()
        best = None
        for op_id in mobile:
            choice = evaluate_reduction(state, op_id, weights=weights)
            if best is None or choice.score > best.score + 1e-12:
                best = choice
        lo, hi = state.frames.frame(best.op_id)
        if best.shrink_low_side:
            state.commit_reduce_effect(best.op_id, lo + 1, hi)
        else:
            state.commit_reduce_effect(best.op_id, lo, hi - 1)


def assert_uncoupled_runs_are_ifds(system, library, assignment, periods, weights):
    expected = {
        (process.name, block.name): brute_force_ifds(block, library, weights)
        for process, block in system.iter_blocks()
    }
    all_local = ModuloSystemScheduler(library, weights=weights).schedule(
        system, ResourceAssignment(library)
    )
    unaligned = ModuloSystemScheduler(
        library, weights=weights, periodical_alignment=False
    ).schedule(system, assignment, periods)
    for result in (all_local, unaligned):
        starts = {key: sched.starts for key, sched in result.block_schedules.items()}
        assert starts == expected


@pytest.mark.parametrize("weighted", [False, True])
def test_paper_system(weighted):
    system, library = paper_system()
    weights = area_weights(library) if weighted else None
    assert_uncoupled_runs_are_ifds(
        system, library, paper_assignment(library), paper_periods(), weights
    )


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example(path):
    problem = load_problem(path)
    assert_uncoupled_runs_are_ifds(
        problem.system,
        problem.library,
        problem.assignment,
        problem.periods,
        area_weights(problem.library),
    )


@pytest.mark.parametrize("seed", range(20))
def test_random_multiblock_system(seed):
    """Three processes of three blocks, every type global at period 4."""
    library = default_library()
    system = SystemSpec(name=f"sib{seed}")
    for index in range(3):
        process = Process(name=f"p{index}")
        for block in range(3):
            graph = random_dfg(8, seed=100 * seed + 10 * index + block)
            deadline = graph.critical_path_length(library.latency_of) + 4
            process.add_block(Block(name=f"b{block}", graph=graph, deadline=deadline))
        system.add_process(process)
    assignment = ResourceAssignment.all_global(library, system)
    periods = PeriodAssignment({name: 4 for name in assignment.global_types})
    assert_uncoupled_runs_are_ifds(system, library, assignment, periods, None)
