"""Calls per iteration into the package, pinned as an upper bound.

Profiled call counts do not depend on the host or the hash seed, so
they can hold a perf change to account where wall times cannot.  Each
subject is scheduled under ``cProfile`` (area weights, no tracer) and
the calls into functions defined under ``src/repro`` are divided by the
run's iterations.  Comprehension and generator-expression code objects
are left out: Python 3.12 inlines comprehensions (PEP 709), so their
calls would differ across the versions CI runs.  Builtin and numpy
calls vary with those versions too and are not counted.

A change that lowers a count lowers its pin; one that raises a count
says why.
"""

import cProfile
import os
import pstats

import pytest

import repro
from repro.core.scheduler import ModuloSystemScheduler
from repro.scheduling.forces import area_weights
from repro.workloads import (
    corpus_system,
    paper_assignment,
    paper_periods,
    paper_system,
)

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def _paper():
    system, library = paper_system()
    return library, system, paper_assignment(library), paper_periods()


def _corpus12():
    instance = corpus_system(12, seed=1)
    return instance.library, instance.system, instance.assignment, instance.periods


#: Subject -> (builder, upper bound on package calls per iteration).
PINS = {
    "paper": (_paper, 93),
    "corpus12": (_corpus12, 103),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_package_calls_per_iteration_are_bounded(name):
    build, bound = PINS[name]
    library, system, assignment, periods = build()
    scheduler = ModuloSystemScheduler(library, weights=area_weights(library))
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = scheduler.schedule(system, assignment, periods)
    finally:
        profile.disable()
    calls = sum(
        stat[1]
        for (filename, _line, function), stat in pstats.Stats(profile).stats.items()
        if function not in COMPREHENSIONS
        and os.path.abspath(filename).startswith(PACKAGE)
    )
    assert result.iterations > 0
    assert calls / result.iterations <= bound
