"""Heuristic period optimization (the paper's stated current work, §8).

The paper finds periods by complete enumeration filtered through eq. 3
and names "finding the optimal periods of the global resource types
without a complete enumeration" as work in progress.  This module
implements that search as seeded local search over the candidate lattice:

1. start from the ``min-deadline`` suggestion (the paper's own choice);
2. repeatedly evaluate neighbor assignments — one type's period moved one
   step up or down its candidate list — by actually scheduling the
   system, keeping the best (area, grid) result;
3. stop when no neighbor improves or the evaluation budget is spent.

Every evaluation is cached, assignments are filtered through the same
eq. 3 rules as the enumeration, and the search is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from ..ir.process import SystemSpec
from ..resources.assignment import ResourceAssignment
from ..resources.library import ResourceLibrary
from .periods import (
    PeriodAssignment,
    candidate_periods,
    is_harmonic,
    lcm_all,
    suggest_periods,
)
from .result import SystemSchedule
from .scheduler import ModuloSystemScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.bounds import CandidateBounds


@dataclass
class SearchOutcome:
    """Result of a period search."""

    periods: PeriodAssignment
    result: SystemSchedule
    evaluations: int
    trace: List[Tuple[Dict[str, int], float]]
    #: Neighbors skipped because their admissible area lower bound
    #: already met the incumbent area (``prune_with_bounds=True``).
    pruned: int = 0

    @property
    def area(self) -> float:
        return self.result.total_area()


def _passes_filters(
    system: SystemSpec, assignment: ResourceAssignment, periods: Dict[str, int]
) -> bool:
    for process in system.processes:
        type_names = assignment.global_types_of(process.name)
        if not type_names:
            continue
        values = [periods[name] for name in type_names]
        if not is_harmonic(values):
            return False
        if lcm_all(values) > min(b.deadline for b in process.blocks):
            return False
    return True


def optimize_periods(
    system: SystemSpec,
    library: ResourceLibrary,
    assignment: ResourceAssignment,
    *,
    budget: int = 25,
    weights: Optional[Mapping[str, float]] = None,
    prune_with_bounds: bool = False,
) -> SearchOutcome:
    """Local search for a good period assignment.

    Args:
        budget: Maximum number of scheduling evaluations.
        prune_with_bounds: Skip neighbors whose admissible area lower
            bound (:class:`repro.analysis.bounds.CandidateBounds`)
            already meets the incumbent area.  Saves evaluations
            without ever discarding an area improvement; off by
            default because the tie-break on equal-area neighbors
            (finer start grids) can no longer inspect skipped ones.

    Returns:
        The best assignment found, its schedule, and the search trace.
    """
    global_types = assignment.global_types
    candidates = {
        name: candidate_periods(system, assignment, name) for name in global_types
    }
    scheduler = ModuloSystemScheduler(library, weights=weights)
    cache: Dict[Tuple[int, ...], SystemSchedule] = {}
    trace: List[Tuple[Dict[str, int], float]] = []
    pruned = 0
    bounds: "Optional[CandidateBounds]" = None
    if prune_with_bounds:
        from ..analysis.bounds import CandidateBounds

        bounds = CandidateBounds(system, library, assignment)

    def evaluate(periods: Dict[str, int]) -> Optional[SystemSchedule]:
        key = tuple(periods[name] for name in global_types)
        if key in cache:
            return cache[key]
        if len(cache) >= budget:
            return None
        result = scheduler.schedule(
            system, assignment, PeriodAssignment(dict(periods))
        )
        cache[key] = result
        trace.append((dict(periods), result.total_area()))
        return result

    current = suggest_periods(system, assignment, strategy="min-deadline").as_dict
    best_result = evaluate(current)
    assert best_result is not None  # first evaluation is within any budget

    improved = True
    while improved:
        improved = False
        for name in global_types:
            options = candidates[name]
            index = options.index(current[name]) if current[name] in options else None
            neighbor_indexes = []
            if index is None:
                neighbor_indexes = list(range(len(options)))
            else:
                if index > 0:
                    neighbor_indexes.append(index - 1)
                if index + 1 < len(options):
                    neighbor_indexes.append(index + 1)
            for neighbor_index in neighbor_indexes:
                neighbor = dict(current)
                neighbor[name] = options[neighbor_index]
                if not _passes_filters(system, assignment, neighbor):
                    continue
                if bounds is not None and tuple(
                    neighbor[n] for n in global_types
                ) not in cache:
                    bound = bounds.area(PeriodAssignment(dict(neighbor)))
                    if bound >= best_result.total_area():
                        pruned += 1
                        continue
                result = evaluate(neighbor)
                if result is None:
                    break  # budget exhausted
                if _better(result, best_result):
                    best_result = result
                    current = neighbor
                    improved = True
    best_periods = PeriodAssignment(
        {name: best_result.periods.period(name) for name in global_types}
    )
    return SearchOutcome(
        periods=best_periods,
        result=best_result,
        evaluations=len(cache),
        trace=trace,
        pruned=pruned,
    )


def _better(candidate: SystemSchedule, incumbent: SystemSchedule) -> bool:
    """Primary: smaller area.  Tie-break: finer start grids (reactivity)."""
    ca, ia = candidate.total_area(), incumbent.total_area()
    if ca != ia:
        return ca < ia
    c_grid = sum(
        candidate.grid_spacing(p.name) for p in candidate.system.processes
    )
    i_grid = sum(
        incumbent.grid_spacing(p.name) for p in incumbent.system.processes
    )
    return c_grid < i_grid
