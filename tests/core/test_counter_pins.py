"""Exact telemetry pins of production scheduler runs.

Each subject's full ``tracer.counters.as_dict()``, iteration count and
area are recorded as literals.  Any change to the selection engine that
moves a counter — cache hits, misses, invalidations, assemblies, force
evaluations, the scoreboard's rescored/skipped split — fails here, so a
refactor that claims "no observable change" has to prove it.  A change
that moves a counter on purpose re-pins the literals and says why.

The subjects cover the paper system, a guarded (conditional-branch)
workload, two scenario-corpus sizes and the 6-process random system of
the A5 scaling bench.
"""

import pytest

from repro.core.periods import PeriodAssignment
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


def _paper():
    system, library = paper_system()
    return (
        library,
        system,
        paper_assignment(library),
        paper_periods(),
        area_weights(library),
    )


def _guarded():
    library = default_library()
    system = SystemSpec(name="modal")
    for index, taps in enumerate((3, 4)):
        graph = mode_switching_filter(taps, name=f"g{index}")
        deadline = graph.critical_path_length(library.latency_of) + 4
        process = Process(name=f"p{index}")
        process.add_block(Block(name="main", graph=graph, deadline=deadline))
        system.add_process(process)
    assignment = ResourceAssignment.all_global(library, system)
    periods = PeriodAssignment({name: 3 for name in assignment.global_types})
    return library, system, assignment, periods, None


def _corpus(processes):
    instance = corpus_system(processes, seed=1)
    return (
        instance.library,
        instance.system,
        instance.assignment,
        instance.periods,
        None,
    )


def _scaling6():
    """``benchmarks/bench_scaling.py``'s ``build_system(6)``: twelve-op
    random graphs, slack 6, every type global at period 4."""
    library = default_library()
    system = SystemSpec(name="scale6")
    for index in range(6):
        graph = random_dfg(12, seed=1000 + index)
        deadline = graph.critical_path_length(library.latency_of) + 6
        process = Process(name=f"p{index}")
        process.add_block(Block(name="main", graph=graph, deadline=deadline))
        system.add_process(process)
    assignment = ResourceAssignment.all_global(library, system)
    periods = PeriodAssignment({name: 4 for name in assignment.global_types})
    return library, system, assignment, periods, None


PINS = {
    "paper": (
        _paper,
        1150,
        13.0,
        {
            "distribution_rebuilds": 1252,
            "force_cache_assemblies": 42947,
            "force_cache_hits": 65956,
            "force_cache_invalidations": 19902,
            "force_cache_misses": 19902,
            "force_evaluations": 54491,
            "frame_reductions": 1150,
            "modulo_max_transforms": 55755,
            "scheduler_iterations": 1150,
            "selection_rescored": 5067,
            "selection_skipped": 688,
        },
    ),
    "guarded": (
        _guarded,
        70,
        9.0,
        {
            "distribution_rebuilds": 80,
            "force_cache_assemblies": 309,
            "force_cache_hits": 391,
            "force_cache_invalidations": 425,
            "force_cache_misses": 425,
            "force_evaluations": 1281,
            "frame_reductions": 70,
            "modulo_max_transforms": 1365,
            "scheduler_iterations": 70,
            "selection_rescored": 121,
            "selection_skipped": 21,
        },
    ),
    "corpus10": (
        lambda: _corpus(10),
        925,
        106.5,
        {
            "distribution_rebuilds": 1062,
            "force_cache_assemblies": 6444,
            "force_cache_hits": 178124,
            "force_cache_invalidations": 4821,
            "force_cache_misses": 4821,
            "force_evaluations": 15151,
            "frame_reductions": 925,
            "modulo_max_transforms": 7402,
            "scheduler_iterations": 925,
            "selection_rescored": 3950,
            "selection_skipped": 37720,
        },
    ),
    "corpus20": (
        lambda: _corpus(20),
        1772,
        238.0,
        {
            "distribution_rebuilds": 2062,
            "force_cache_assemblies": 25904,
            "force_cache_hits": 674537,
            "force_cache_invalidations": 8962,
            "force_cache_misses": 8962,
            "force_evaluations": 28441,
            "frame_reductions": 1772,
            "modulo_max_transforms": 13656,
            "scheduler_iterations": 1772,
            "selection_rescored": 10111,
            "selection_skipped": 153005,
        },
    ),
    "scaling6": (
        _scaling6,
        482,
        24.0,
        {
            "distribution_rebuilds": 493,
            "force_cache_assemblies": 12311,
            "force_cache_hits": 20828,
            "force_cache_invalidations": 3315,
            "force_cache_misses": 3315,
            "force_evaluations": 8438,
            "frame_reductions": 482,
            "modulo_max_transforms": 8946,
            "scheduler_iterations": 482,
            "selection_rescored": 2516,
            "selection_skipped": 382,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_counters_iterations_and_area_are_pinned(name):
    build, iterations, area, counters = PINS[name]
    library, system, assignment, periods, weights = build()
    tracer = Tracer()
    result = ModuloSystemScheduler(
        library, weights=weights, tracer=tracer
    ).schedule(system, assignment, periods)
    assert result.iterations == iterations
    assert result.total_area() == area
    assert tracer.counters.as_dict() == counters
