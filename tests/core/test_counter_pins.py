"""Exact telemetry pins of production scheduler runs.

Each subject's full ``tracer.counters.as_dict()``, iteration count,
area and a digest of its block starts are recorded as literals.  Any
change to the selection engine that moves a counter — rows re-folded
and built, force evaluations, the scoreboard's rescored/skipped split —
or a start fails here, so a refactor that claims "no observable
change" has to prove it.  A change that moves a counter on purpose
re-pins the literals and says why.  The last such move: a commit now
rebuilds a neighbour's frame end only where it cut a changed
operation's old frame, so rows built, force evaluations and modulo-max
transforms fell and the kept rows re-fold as hits, while iterations,
areas and starts stayed put.

``force_cache_misses`` counts the slot sides (frame ends) whose rows the
kernel built and ``force_cache_hits`` those it re-folded without a
rebuild; every operation of the guarded workload has a guarded
footprint and is rebuilt whenever a footprint type moves, so it
re-folds nothing and its hit key is absent.

The subjects cover the paper system, a guarded (conditional-branch)
workload, two scenario-corpus sizes, the 6-process random system of
the A5 scaling bench, and multi-block processes whose blocks share
global types (the only subject that exercises eq. 9's sibling path).
Classic FDS is pinned on the elliptic wave filter and on a block mixing
guarded and unguarded operations; it emits no ``force_cache_*`` key,
since it evaluates every (op, step) placement in one batch per
iteration.
"""

import hashlib

import pytest

from repro.core.periods import PeriodAssignment
from repro.core.scheduler import ModuloSystemScheduler
from repro.ir.operation import OpKind
from repro.ir.process import Block, Process, SystemSpec
from repro.obs import AuditTrail, Tracer
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.scheduling.fds import ForceDirectedScheduler
from repro.scheduling.forces import area_weights
from repro.workloads import (
    corpus_system,
    elliptic_wave_filter,
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


def _siblings(seed=0):
    """Three processes of three ``random_dfg(8)`` blocks, slack 4, every
    type global at period 4: commits reach same-process siblings."""
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
    return library, system, assignment, periods, None


def _starts_digest(schedules):
    """First 16 hex digits of the SHA-256 of every block's sorted starts,
    blocks sorted by key: equal digests mean equal schedules."""
    text = repr(sorted((key, sorted(sched.starts.items())) for key, sched in schedules))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PINS = {
    "paper": (
        _paper,
        1150,
        13.0,
        "25887dd0b5ffb0e5",
        {
            "distribution_rebuilds": 1252,
            "force_cache_hits": 30864,
            "force_cache_misses": 5014,
            "force_evaluations": 39325,
            "frame_reductions": 1150,
            "modulo_max_transforms": 40589,
            "scheduler_iterations": 1150,
            "selection_rescored": 5067,
            "selection_skipped": 688,
        },
    ),
    "guarded": (
        _guarded,
        70,
        9.0,
        "2451c520122e0b39",
        {
            "distribution_rebuilds": 80,
            "force_cache_misses": 850,
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
        "246b9c201a33393a",
        {
            "distribution_rebuilds": 1062,
            "force_cache_hits": 4507,
            "force_cache_misses": 3381,
            "force_evaluations": 10343,
            "frame_reductions": 925,
            "modulo_max_transforms": 5574,
            "scheduler_iterations": 925,
            "selection_rescored": 2173,
            "selection_skipped": 39497,
        },
    ),
    "corpus20": (
        lambda: _corpus(20),
        1772,
        238.0,
        "5bea855279f48267",
        {
            "distribution_rebuilds": 2062,
            "force_cache_hits": 8265,
            "force_cache_misses": 6548,
            "force_evaluations": 19727,
            "frame_reductions": 1772,
            "modulo_max_transforms": 10400,
            "scheduler_iterations": 1772,
            "selection_rescored": 6664,
            "selection_skipped": 156452,
        },
    ),
    "scaling6": (
        _scaling6,
        482,
        24.0,
        "f1ced58d8fa92d61",
        {
            "distribution_rebuilds": 493,
            "force_cache_hits": 3215,
            "force_cache_misses": 1468,
            "force_evaluations": 5265,
            "frame_reductions": 482,
            "modulo_max_transforms": 5773,
            "scheduler_iterations": 482,
            "selection_rescored": 2516,
            "selection_skipped": 382,
        },
    ),
    "siblings": (
        _siblings,
        311,
        13.0,
        "8e2905942823a541",
        {
            "distribution_rebuilds": 315,
            "force_cache_hits": 3916,
            "force_cache_misses": 863,
            "force_evaluations": 5092,
            "frame_reductions": 311,
            "modulo_max_transforms": 5432,
            "scheduler_iterations": 311,
            "selection_rescored": 1965,
            "selection_skipped": 843,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_counters_iterations_and_area_are_pinned(name):
    build, iterations, area, starts, counters = PINS[name]
    library, system, assignment, periods, weights = build()
    tracer = Tracer()
    result = ModuloSystemScheduler(
        library, weights=weights, tracer=tracer
    ).schedule(system, assignment, periods)
    assert result.iterations == iterations
    assert result.total_area() == area
    assert _starts_digest(result.block_schedules.items()) == starts
    assert tracer.counters.as_dict() == counters


def _fds_ewf24():
    library = default_library()
    block = Block(name="ewf", graph=elliptic_wave_filter(), deadline=24)
    return library, block, None


def _fds_modal():
    """The mode-switching filter plus an unguarded subtracter tail, under
    area weights."""
    library = default_library()
    graph = mode_switching_filter(4, name="modal")
    prev = "scale"
    for index in range(3):
        op = graph.add(f"post{index}", OpKind.SUB)
        graph.add_edge(prev, op.op_id)
        prev = op.op_id
    deadline = graph.critical_path_length(library.latency_of) + 4
    block = Block(name="modal", graph=graph, deadline=deadline)
    return library, block, area_weights(library)


FDS_PINS = {
    "ewf24": (
        _fds_ewf24,
        26,
        6.0,
        "c152887d69e5ee4d",
        {
            "distribution_rebuilds": 35,
            "force_evaluations": 4872,
            "frame_reductions": 26,
            "scheduler_iterations": 26,
        },
    ),
    "modal": (
        _fds_modal,
        7,
        6.0,
        "4fa08c96b7ce5d04",
        {
            "distribution_rebuilds": 11,
            "force_evaluations": 322,
            "frame_reductions": 7,
            "scheduler_iterations": 7,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(FDS_PINS))
def test_fds_counters_iterations_and_area_are_pinned(name):
    build, iterations, area, starts, counters = FDS_PINS[name]
    library, block, weights = build()
    tracer = Tracer()
    schedule = ForceDirectedScheduler(
        library, weights=weights, tracer=tracer
    ).schedule(block)
    assert schedule.iterations == iterations
    peaks = schedule.peaks()
    assert sum(library.type(t).area * peak for t, peak in peaks.items()) == area
    assert _starts_digest([(block.name, schedule)]) == starts
    assert tracer.counters.as_dict() == counters


@pytest.mark.parametrize("name", ["guarded", "paper"])
def test_force_eval_seconds_covers_every_evaluation(name):
    """Every row the kernel builds, guarded or not, goes through the
    batch kernel and is recorded once in ``force_eval_seconds``."""
    build = PINS[name][0]
    library, system, assignment, periods, weights = build()
    tracer = Tracer()
    ModuloSystemScheduler(library, weights=weights, tracer=tracer).schedule(
        system, assignment, periods
    )
    histogram = tracer.metrics.histograms_dict()["force_eval_seconds"]
    misses = tracer.counters.as_dict()["force_cache_misses"]
    assert histogram["count"] == misses


@pytest.mark.parametrize("seed,process_scopes", [(0, 57), (1, 76), (2, 62)])
def test_sibling_commits_carry_process_scopes(seed, process_scopes):
    """A commit that changes a block's ``Q`` but not its process maximum
    ``M`` has scope ``process``; the sibling subject must produce them."""
    library, system, assignment, periods, _weights = _siblings(seed)
    audit = AuditTrail(capacity=None, keep_candidates=False)
    ModuloSystemScheduler(library, audit=audit).schedule(system, assignment, periods)
    scopes = [
        scope for decision in audit.decisions for scope in decision.scopes.values()
    ]
    assert scopes.count("process") == process_scopes
