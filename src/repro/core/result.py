"""System-level schedule results: instance counts, authorizations, area.

A :class:`SystemSchedule` bundles the per-block schedules produced by the
modulo system scheduler (or by per-process classic scheduling, for the
baseline) with the scope and period decisions, and derives everything the
paper's evaluation reports:

* per-process **access authorizations** for global types (how many
  instances a process may touch at each period slot — the synthesis-time
  artifact replacing any runtime executive);
* **instance counts**: global pools sized by the slot-wise sum of the
  per-process authorizations; local types sized per process by peak
  concurrent usage;
* total **area cost**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import SchedulingError
from ..ir.process import SystemSpec
from ..resources.assignment import ResourceAssignment
from ..resources.library import ResourceLibrary
from ..scheduling.schedule import BlockSchedule
from .modulo import modulo_max_int
from .periods import PeriodAssignment

BlockKey = Tuple[str, str]


@dataclass
class SystemSchedule:
    """Schedules of every block of the system plus sharing decisions.

    ``start_offsets`` optionally shifts a process's start grid: its blocks
    then start at absolute times ≡ offset (mod its grid spacing), which
    rotates all of its periodic authorizations by the offset.  Offsets
    default to 0 (the paper's convention); :func:`repro.core.offsets.
    optimize_offsets` picks them to flatten the slot demand.
    """

    system: SystemSpec
    library: ResourceLibrary
    assignment: ResourceAssignment
    periods: PeriodAssignment
    block_schedules: Dict[BlockKey, BlockSchedule]
    iterations: int = 0
    wall_time: float = 0.0
    start_offsets: Dict[str, int] = field(default_factory=dict)
    #: True when a :class:`~repro.validation.budget.RunBudget` exhausted
    #: mid-run and the blocks were rescheduled by the list-scheduling
    #: fallback; the reason lives in ``telemetry["degraded"]``.
    degraded: bool = False
    #: Observability summary filled in by the scheduler: ``phase_times``
    #: (setup / reduction_loop / finalization seconds), ``wall_time``,
    #: ``iterations``, ``counters`` (from the run's tracer; empty when
    #: scheduled through the no-op tracer), and ``events`` (trace-event
    #: count).  Empty for hand-built results.
    telemetry: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def schedule_of(self, process_name: str, block_name: str) -> BlockSchedule:
        try:
            return self.block_schedules[(process_name, block_name)]
        except KeyError:
            raise SchedulingError(
                f"no schedule for block {block_name!r} of process {process_name!r}"
            ) from None

    def blocks_of(self, process_name: str) -> List[Tuple[str, BlockSchedule]]:
        """``(block name, schedule)`` of every scheduled block of a process.

        Walks the process's own blocks in specification order (the order
        the schedulers fill ``block_schedules`` in); a block without a
        schedule is skipped.
        """
        if process_name not in self.system:
            return []
        pairs = []
        for block in self.system.process(process_name).blocks:
            sched = self.block_schedules.get((process_name, block.name))
            if sched is not None:
                pairs.append((block.name, sched))
        return pairs

    def types_used(self, process_name: str) -> Set[str]:
        """Names of the resource types a process's scheduled blocks use.

        Every other type has an all-zero usage profile in the process.
        """
        type_of = self.library.type_of
        return {
            type_of(op).name
            for _, sched in self.blocks_of(process_name)
            for op in sched.graph
        }

    # ------------------------------------------------------------------
    # Authorizations and instance counts
    # ------------------------------------------------------------------
    def offset_of(self, process_name: str) -> int:
        """Start-grid offset of a process (0 unless offsets were optimized)."""
        return self.start_offsets.get(process_name, 0)

    def authorization(self, process_name: str, type_name: str) -> np.ndarray:
        """Access authorization of a process for a global type.

        Entry ``tau`` is the number of instances the process may use at
        every absolute time step congruent to ``tau`` modulo the type's
        period: the maximum, over the process's blocks, of the
        modulo-max-folded integer usage (eqs. 1, 7 applied to the final
        schedule), rotated by the process's start offset (blocks start at
        absolute times ≡ offset, so relative slot ``s`` lands on absolute
        slot ``s + offset``).
        """
        if not self.assignment.shares_globally(type_name, process_name):
            raise SchedulingError(
                f"type {type_name!r} is not globally shared by process "
                f"{process_name!r}"
            )
        period = self.periods.period(type_name)
        auth = np.zeros(period, dtype=int)
        for _, sched in self.blocks_of(process_name):
            folded = modulo_max_int(sched.usage_profile(type_name), period)
            np.maximum(auth, folded, out=auth)
        offset = self.offset_of(process_name) % period
        if offset:
            auth = np.roll(auth, offset)
        return auth

    def global_demand(self, type_name: str) -> np.ndarray:
        """Slot-wise sum of the sharing processes' authorizations (``S_k``)."""
        if not self.assignment.is_global(type_name):
            raise SchedulingError(f"type {type_name!r} is not global")
        period = self.periods.period(type_name)
        demand = np.zeros(period, dtype=int)
        for process_name in self.assignment.group(type_name):
            demand += self.authorization(process_name, type_name)
        return demand

    def global_instances(self, type_name: str) -> int:
        """Pool size of a global type.

        For occupancy-1 types (unit latency or pipelined) the pool is the
        maximum slot demand: processes own *per-slot* disjoint instance-id
        ranges, so instances are reused across slots.  A non-pipelined
        multicycle unit spans several slots per operation, and slot-varying
        id ranges cannot guarantee one stable instance across the span —
        such types are pooled by a synthesis-time coloring of the periodic
        conflict graph instead (:mod:`repro.core.coloring`), which lies
        between the maximum slot demand and the sum of per-process peaks.
        """
        if self.library.type(type_name).occupancy > 1:
            from .coloring import multicycle_pool

            return multicycle_pool(self, type_name)
        demand = self.global_demand(type_name)
        return int(demand.max()) if demand.size else 0

    def local_instances(self, process_name: str, type_name: str) -> int:
        """Per-process instance need of a type used locally by the process.

        Zero if the process shares the type globally (it then draws from
        the pool) or never uses it.
        """
        if self.assignment.shares_globally(type_name, process_name):
            return 0
        peak = 0
        for _, sched in self.blocks_of(process_name):
            peak = max(peak, sched.peak_usage(type_name))
        return peak

    def instance_counts(self) -> Dict[str, int]:
        """Total instances per resource type (global pool + local sums)."""
        local: Dict[str, int] = {}
        for process in self.system.processes:
            for type_name in self.types_used(process.name):
                local[type_name] = local.get(type_name, 0) + self.local_instances(
                    process.name, type_name
                )
        counts: Dict[str, int] = {}
        for rtype in self.library.types:
            total = local.get(rtype.name, 0)
            if self.assignment.is_global(rtype.name):
                total += self.global_instances(rtype.name)
            if total:
                counts[rtype.name] = total
        return counts

    def total_area(self) -> float:
        """Sum of instance counts weighted by the types' area costs."""
        return self._area_of(self.instance_counts())

    def _area_of(self, counts: Dict[str, int]) -> float:
        return sum(
            count * self.library.type(name).area for name, count in counts.items()
        )

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def grid_spacing(self, process_name: str) -> int:
        """Start-time grid of a process (eq. 3); 1 if it shares nothing."""
        return self.periods.process_grid(self.assignment, process_name)

    def validate(self) -> None:
        """Validate every block schedule and the coverage of the system."""
        for process, block in self.system.iter_blocks():
            sched = self.schedule_of(process.name, block.name)
            sched.validate()
            if sched.deadline > block.deadline:
                raise SchedulingError(
                    f"block {block.name!r} of {process.name!r} scheduled over "
                    f"{sched.deadline} steps, deadline is {block.deadline}"
                )

    def summary(self) -> str:
        """One-paragraph human-readable result summary."""
        counts = self.instance_counts()
        parts = [f"{count}x {name}" for name, count in counts.items()]
        return (
            f"system {self.system.name!r}: "
            + ", ".join(parts)
            + f"; area {self._area_of(counts):g}"
            + (f"; {self.iterations} iterations" if self.iterations else "")
        )
