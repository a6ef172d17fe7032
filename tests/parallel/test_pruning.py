"""Property tests for bound-based pruning (ISSUE satellite).

Two properties over the paper system and a population of random
systems:

* **parity** — a pruned sweep finds the same best area as the
  exhaustive serial sweep (the bound is admissible, so skipping can
  never lose the optimum);
* **admissibility** — no evaluated candidate achieves an area below
  its precomputed lower bound.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.bounds import area_lower_bound
from repro.api import Problem, load_problem
from repro.core.periods import (
    enumerate_period_assignments,
    enumerate_period_assignments_capped,
)
from repro.ir.process import Block, Process, SystemSpec
from repro.parallel import STATUS_OK, STATUS_PRUNED, ExplorationEngine
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.workloads import (
    paper_assignment,
    paper_periods,
    paper_system,
    random_dfg,
)

PAPER_SYS = Path(__file__).resolve().parents[2] / "examples" / "paper_system.sys"
RANDOM_SYSTEM_COUNT = 10
MAX_CANDIDATES = 12


def random_problem(seed):
    """A small random multi-process system with all types global."""
    library = default_library()
    system = SystemSpec(name=f"rand{seed}")
    for index in range(2):
        graph = random_dfg(5, seed=seed * 100 + index)
        deadline = graph.critical_path_length(library.latency_of) + 4
        process = Process(name=f"p{index}")
        process.add_block(Block(name="main", graph=graph, deadline=deadline))
        system.add_process(process)
    assignment = ResourceAssignment.all_global(library, system)
    periods = enumerate_period_assignments(system, assignment)[0]
    return Problem(
        system=system, library=library, assignment=assignment, periods=periods
    )


def check_pruning_parity(problem, candidates):
    exhaustive = ExplorationEngine(problem, workers=1, prune=False).sweep(
        candidates
    )
    pruned = ExplorationEngine(problem, workers=1, prune=True).sweep(
        candidates
    )
    assert exhaustive.best_area is not None
    assert pruned.best_area == exhaustive.best_area
    assert pruned.evaluated + pruned.pruned == len(candidates)
    # Admissibility: no schedule beats its precomputed lower bound.
    for record in exhaustive.results:
        assert record.status == STATUS_OK
        assert record.bound <= record.area + 1e-9, (
            record.periods,
            record.bound,
            record.area,
        )
    return pruned


@pytest.mark.parametrize("seed", range(1, RANDOM_SYSTEM_COUNT + 1))
def test_pruned_best_matches_exhaustive_random(seed):
    problem = random_problem(seed)
    candidates = enumerate_period_assignments(
        problem.system, problem.assignment
    )[:MAX_CANDIDATES]
    assert len(candidates) >= 2
    check_pruning_parity(problem, candidates)


def test_pruned_best_matches_exhaustive_paper_system():
    system, library = paper_system()
    assignment = paper_assignment(library)
    problem = Problem(
        system=system,
        library=library,
        assignment=assignment,
        periods=paper_periods(),
    )
    candidates = enumerate_period_assignments(system, assignment)
    # The paper system's full space is ~70 candidates at about a second
    # of scheduling each; an evenly spaced subsample keeps the property
    # meaningful (it includes the cheapest and most expensive bounds)
    # at test-suite cost.
    subsample = candidates[:: max(1, len(candidates) // 5)]
    assert len(subsample) >= 3
    pruned = check_pruning_parity(problem, subsample)
    assert pruned.best_area is not None


def test_bounds_never_exceed_achieved_area_paper_periods():
    """The paper's own period choice respects its lower bound."""
    system, library = paper_system()
    assignment = paper_assignment(library)
    periods = paper_periods()
    problem = Problem(
        system=system, library=library, assignment=assignment, periods=periods
    )
    bound = area_lower_bound(system, library, assignment, periods)
    result = problem.schedule()
    assert bound <= result.total_area() + 1e-9


def test_parallel_dispatch_sees_every_finished_incumbent():
    """One chunk in flight per worker: the two-worker paper sweep
    evaluates the serial sweep's 7 candidates and prunes the bound-13
    candidate, which a deeper dispatch window scheduled (area 18)
    before any area-13 result had come back."""
    problem = load_problem(PAPER_SYS)
    candidates, _ = enumerate_period_assignments_capped(
        problem.system, problem.assignment, limit=500
    )
    outcome = ExplorationEngine(problem, workers=2).sweep(candidates)
    assert outcome.best_area == 13
    assert outcome.evaluated == 7
    assert outcome.failed == 0
    status = {
        tuple(sorted(record.periods.items())): record.status
        for record in outcome.results
    }
    bound_13 = (("adder", 3), ("multiplier", 6), ("subtracter", 3))
    assert status[bound_13] == STATUS_PRUNED
