"""High-level convenience API: whole scheduling problems in one object.

Bridges the text format (:mod:`repro.ir.systemio`) and the live objects:
a :class:`Problem` bundles system, library, assignment, and periods, and
knows how to schedule itself globally or with the traditional local
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from .core.periods import PeriodAssignment, suggest_periods
from .errors import SpecificationError
from .ir.process import SystemSpec
from .ir.systemio import SystemDocument
from .resources.assignment import ResourceAssignment
from .resources.library import ResourceLibrary, default_library
from .resources.types import resource_type

if TYPE_CHECKING:
    from .core.result import SystemSchedule


@dataclass
class Problem:
    """A complete scheduling problem: what to schedule and how to share."""

    system: SystemSpec
    library: ResourceLibrary
    assignment: ResourceAssignment
    periods: PeriodAssignment

    def validate(self) -> None:
        self.library.covers(self.system)
        self.assignment.validate(self.system)
        self.periods.validate(self.assignment)
        self.system.validate(self.library.latency_of)

    def schedule(
        self, *, use_area_weights: bool = True, **scheduler_kwargs
    ) -> SystemSchedule:
        """Run the modulo system scheduler on this problem."""
        from .core.scheduler import ModuloSystemScheduler
        from .scheduling.forces import area_weights

        weights = area_weights(self.library) if use_area_weights else None
        scheduler = ModuloSystemScheduler(
            self.library, weights=weights, **scheduler_kwargs
        )
        return scheduler.schedule(self.system, self.assignment, self.periods)

    def schedule_local_baseline(
        self, *, use_area_weights: bool = True, **scheduler_kwargs
    ) -> SystemSchedule:
        """Run the traditional all-local scheduling for comparison."""
        from .core.scheduler import ModuloSystemScheduler
        from .scheduling.forces import area_weights

        weights = area_weights(self.library) if use_area_weights else None
        scheduler = ModuloSystemScheduler(
            self.library, weights=weights, **scheduler_kwargs
        )
        return scheduler.schedule(
            self.system, ResourceAssignment.all_local(self.library)
        )

    def dumps(self) -> str:
        """Serialize this problem as ``.sys`` text (see :func:`dumps_problem`)."""
        return dumps_problem(self)


def problem_from_document(document: SystemDocument) -> Problem:
    """Turn a parsed ``.sys`` document into a live :class:`Problem`.

    A document without ``resource`` directives gets the paper's default
    library; global types without an explicit ``period`` directive get the
    ``min-deadline`` heuristic period.
    """
    if document.resources:
        library = ResourceLibrary(
            resource_type(
                name,
                options["kinds"],
                latency=int(options["latency"]),
                area=float(options["area"]),
                pipelined=bool(options["pipelined"]),
                initiation_interval=int(options["ii"]),
            )
            for name, options in document.resources.items()
        )
    else:
        library = default_library()

    system = document.build_system()
    library.covers(system)

    assignment = ResourceAssignment(library)
    for type_name, group in document.globals.items():
        assignment.make_global(type_name, group)
    assignment.validate(system)

    periods: Dict[str, int] = dict(document.periods)
    missing = [t for t in assignment.global_types if t not in periods]
    if missing:
        suggested = suggest_periods(system, assignment, strategy="min-deadline")
        for type_name in missing:
            periods[type_name] = suggested.period(type_name)
    extra = [t for t in periods if not assignment.is_global(t)]
    if extra:
        raise SpecificationError(
            f"periods declared for non-global types: {extra}"
        )
    problem = Problem(
        system=system,
        library=library,
        assignment=assignment,
        periods=PeriodAssignment(periods),
    )
    problem.validate()
    return problem


def load_problem(path) -> Problem:
    """Parse a ``.sys`` file and build the :class:`Problem` it describes."""
    from .ir import systemio

    return problem_from_document(systemio.load(path))


def loads_problem(text: str) -> Problem:
    """Parse ``.sys`` text and build the :class:`Problem` it describes."""
    from .ir import systemio

    return problem_from_document(systemio.loads(text))


def dumps_problem(problem: Problem) -> str:
    """Serialize a whole :class:`Problem` as ``.sys`` text.

    The inverse of :func:`loads_problem`: the emitted text reparses into
    a problem with the same system, library, scope assignment, and
    periods, and an identical text round-trip schedules identically.
    This is how scheduling problems travel to worker processes in
    :mod:`repro.parallel` — as reviewable text instead of pickled live
    objects.
    """
    from .ir import systemio

    resources = {
        rtype.name: {
            "kinds": sorted(rtype.kinds, key=lambda kind: kind.value),
            "latency": rtype.latency,
            "area": rtype.area,
            "pipelined": rtype.pipelined,
            "ii": rtype.initiation_interval,
        }
        for rtype in problem.library.types
    }
    global_groups = {
        type_name: problem.assignment.group(type_name)
        for type_name in problem.assignment.global_types
    }
    return systemio.dumps(
        problem.system,
        resources=resources,
        global_groups=global_groups,
        periods=problem.periods.as_dict,
    )
