"""Lower bounds on instance counts.

Averaging bounds certify how close a schedule is to optimal:

* **per-block bound** — a block with ``busy`` occupancy-steps of a type
  and time range ``T`` needs at least ``ceil(busy / T)`` instances;
* **per-process bound** — the maximum of its blocks' bounds (blocks never
  overlap);
* **global-pool bound** — a process's per-slot authorizations ``A(tau)``
  cover each slot at most ``ceil(T_b / P)`` times inside a block range,
  so ``sum_tau A(tau) >= busy_b / ceil(T_b / P)``; averaging the slot
  demand over the period then gives
  ``pool >= ceil( sum_p max_b busy_b / (P * ceil(T_b / P)) )``.
  When ``P`` divides every block range this reduces to the utilization
  densities ``busy_b / T_b``.

These hold for *any* valid schedule under the model, so
``achieved == bound`` proves the instance count optimal.

Since the residue-pressure abstract interpretation landed
(:mod:`repro.analysis.absint`), :func:`type_instance_bound` additionally
takes the interval lower envelope when it beats the averaging bound:
the rotation-free interval peak for global pools and the
forced-simultaneity peak for local/per-process counts.  Both are sound
for every grid-admissible schedule (and for re-optimized offsets), so
the strengthened bound keeps the pruning in :mod:`repro.parallel`
admissible while pruning at least as many candidates.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from ..ir.process import Block, Process, SystemSpec
from ..resources.assignment import ResourceAssignment
from ..resources.library import ResourceLibrary
from ..core.periods import PeriodAssignment
from ..core.result import SystemSchedule


def _busy_steps(block: Block, library: ResourceLibrary, type_name: str) -> int:
    rtype = library.type(type_name)
    return sum(rtype.occupancy for op in block.graph if rtype.executes(op.kind))


def block_bound(block: Block, library: ResourceLibrary, type_name: str) -> int:
    """Averaging lower bound on instances of one type for one block."""
    busy = _busy_steps(block, library, type_name)
    if busy == 0:
        return 0
    return math.ceil(busy / block.deadline)


def process_bound(
    process: Process, library: ResourceLibrary, type_name: str
) -> int:
    """Lower bound for one process: max over its (non-overlapping) blocks."""
    return max(
        (block_bound(block, library, type_name) for block in process.blocks),
        default=0,
    )


def process_slot_density(
    process: Process, library: ResourceLibrary, type_name: str, period: int
) -> float:
    """Average per-slot authorization one process needs: the bound on
    ``sum_tau A(tau) / P`` derived from its busiest block."""
    best = 0.0
    for block in process.blocks:
        busy = _busy_steps(block, library, type_name)
        if busy:
            coverage = math.ceil(block.deadline / period)
            best = max(best, busy / (period * coverage))
    return best


def global_pool_bound(
    system: SystemSpec,
    library: ResourceLibrary,
    assignment: ResourceAssignment,
    periods: PeriodAssignment,
    type_name: str,
) -> int:
    """Lower bound on the shared pool of one global type.

    The pool covers the sum of the sharing processes' per-slot densities
    (the slot-wise maximum is at least the slot-wise average) and can
    never be smaller than any single member's own averaging bound.
    """
    group = assignment.group(type_name)
    period = periods.period(type_name)
    density_sum = sum(
        process_slot_density(system.process(name), library, type_name, period)
        for name in group
    )
    per_member = max(
        (process_bound(system.process(name), library, type_name) for name in group),
        default=0,
    )
    if density_sum == 0:
        return per_member
    return max(per_member, math.ceil(density_sum - 1e-9))


def _strengthened_process_bound(
    process: Process,
    library: ResourceLibrary,
    type_name: str,
    use_intervals: bool,
) -> int:
    bound = process_bound(process, library, type_name)
    if use_intervals:
        from .absint.analyze import forced_process_bound

        forced = forced_process_bound(process, library, type_name)
        if forced > bound:
            bound = forced
    return bound


def type_instance_bound(
    system: SystemSpec,
    library: ResourceLibrary,
    assignment: ResourceAssignment,
    periods: PeriodAssignment,
    type_name: str,
    *,
    use_intervals: bool = True,
) -> int:
    """System-wide lower bound on instances of one type.

    A global type needs at least its pool bound plus the local bounds of
    any processes using the type outside the sharing group; a local type
    needs the sum of the per-process bounds.  The bound needs no
    schedule, so it is cheap enough to evaluate for every candidate of a
    design-space sweep before any scheduling happens.

    With ``use_intervals`` (the default) each component is maxed with
    its residue-pressure interval counterpart
    (:mod:`repro.analysis.absint`): the rotation-free interval peak for
    the global pool, the forced-simultaneity peak per process.  Pass
    ``use_intervals=False`` for the plain averaging bound (the pre-
    interval behavior, kept for A/B benchmarks).
    """
    if assignment.is_global(type_name):
        bound = global_pool_bound(system, library, assignment, periods, type_name)
        if use_intervals:
            from .absint.analyze import interval_pool_bound

            interval = interval_pool_bound(
                system, library, assignment, periods, type_name
            )
            if interval > bound:
                bound = interval
        # Processes using the type outside the group add local bounds.
        for process in system.processes:
            if not assignment.shares_globally(type_name, process.name):
                bound += _strengthened_process_bound(
                    process, library, type_name, use_intervals
                )
        return bound
    return sum(
        _strengthened_process_bound(process, library, type_name, use_intervals)
        for process in system.processes
    )


def area_lower_bound(
    system: SystemSpec,
    library: ResourceLibrary,
    assignment: ResourceAssignment,
    periods: PeriodAssignment,
    *,
    use_intervals: bool = True,
) -> float:
    """Admissible lower bound on the total area of any valid schedule.

    Sums :func:`type_instance_bound` weighted by the types' area costs.
    Admissibility (``bound <= achieved area`` for every schedule the
    model admits) is what makes bound-based pruning in
    :mod:`repro.parallel` sound: a candidate whose bound already meets
    the best achieved area cannot improve on it.  ``use_intervals``
    selects the interval-strengthened bound (default) or the plain
    averaging bound.
    """
    return sum(
        type_instance_bound(
            system,
            library,
            assignment,
            periods,
            rtype.name,
            use_intervals=use_intervals,
        )
        * rtype.area
        for rtype in library.types
    )


class CandidateBounds:
    """:func:`area_lower_bound` for many period candidates of one problem.

    Sweep candidates differ only in their periods, and a type's bound
    reads little of them: a local type's bound reads none, a global
    type's only its own period (the interval analysis's lower bound
    reads no process grid).  So :func:`type_instance_bound` runs once
    per distinct (type, period) and is reused across candidates;
    :meth:`area` equals :func:`area_lower_bound` exactly.
    """

    def __init__(
        self,
        system: SystemSpec,
        library: ResourceLibrary,
        assignment: ResourceAssignment,
        *,
        use_intervals: bool = True,
    ) -> None:
        self.system = system
        self.library = library
        self.assignment = assignment
        self.use_intervals = use_intervals
        self._counts: Dict[Tuple[object, ...], int] = {}

    def _key(self, periods: PeriodAssignment, type_name: str) -> Tuple[object, ...]:
        if not self.assignment.is_global(type_name):
            return (type_name,)
        return (type_name, periods.period(type_name))

    def area(self, periods: PeriodAssignment) -> float:
        """The admissible area lower bound of one candidate."""
        total: float = 0
        for rtype in self.library.types:
            key = self._key(periods, rtype.name)
            count = self._counts.get(key)
            if count is None:
                count = self._counts[key] = type_instance_bound(
                    self.system,
                    self.library,
                    self.assignment,
                    periods,
                    rtype.name,
                    use_intervals=self.use_intervals,
                )
            total += count * rtype.area
        return total


def bound_report(result: SystemSchedule) -> Dict[str, Dict[str, int]]:
    """Achieved instance counts next to their lower bounds, per type.

    Returns ``{type: {"achieved": n, "bound": m}}`` for every type the
    system uses; ``achieved >= bound`` always holds for valid schedules,
    and equality certifies optimality of that count.
    """
    report: Dict[str, Dict[str, int]] = {}
    counts = result.instance_counts()
    for rtype in result.library.types:
        if rtype.name not in counts:
            continue
        bound = type_instance_bound(
            result.system,
            result.library,
            result.assignment,
            result.periods,
            rtype.name,
        )
        report[rtype.name] = {"achieved": counts[rtype.name], "bound": bound}
    return report
