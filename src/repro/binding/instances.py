"""Operation-to-instance binding.

After scheduling, every operation is bound to a concrete functional-unit
instance:

* **local types** — classic left-edge binding per process: operations are
  colored over their occupancy intervals; blocks of one process reuse the
  same instance ids because they never execute concurrently (C2);
* **occupancy-1 global types** — the per-slot id ranges of the
  :class:`~repro.binding.authorization.AccessAuthorizationTable` partition
  the pool among the processes, and each operation is greedily assigned
  the smallest id that (a) lies inside its process's range at every period
  slot its occupancy spans and (b) is free at every step it occupies;
* **multicycle global types** — per-slot ranges cannot hold one physical
  instance across a multi-slot span, so these bind through the periodic
  conflict-graph coloring (:mod:`repro.core.coloring`) instead.

Mutually exclusive guarded operations may share an instance at the same
step — at most one of them executes per activation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import BindingError
from ..core.result import SystemSchedule
from .authorization import AccessAuthorizationTable

BlockKey = Tuple[str, str]
OpKey = Tuple[str, str, str]  # process, block, operation


@dataclass
class InstanceBinding:
    """Instance assignment of every operation of a system schedule.

    ``binding[(process, block, op)]`` is the instance index of the
    operation within either the global pool of its type (shared types) or
    the process-local pool (local types).
    """

    result: SystemSchedule
    binding: Dict[OpKey, int] = field(default_factory=dict)
    tables: Dict[str, AccessAuthorizationTable] = field(default_factory=dict)

    def instance_of(self, process: str, block: str, op_id: str) -> int:
        try:
            return self.binding[(process, block, op_id)]
        except KeyError:
            raise BindingError(
                f"operation {op_id!r} of {process}/{block} is not bound"
            ) from None

    def validate(self) -> None:
        """Re-check that no two concurrent operations share an instance.

        Mutually exclusive (guarded) operations may legitimately share an
        instance at the same step — at most one of them executes.
        """
        for (process_name, block_name), sched in self.result.block_schedules.items():
            occupancy_map: Dict[Tuple[str, int, int], List[str]] = {}
            for op in sched.graph:
                rtype = self.result.library.type_of(op)
                instance = self.instance_of(process_name, block_name, op.op_id)
                start = sched.start(op.op_id)
                for step in range(start, start + rtype.occupancy):
                    slot_key = (rtype.name, instance, step)
                    for holder_id in occupancy_map.get(slot_key, ()):
                        if not op.excludes(sched.graph.operation(holder_id)):
                            raise BindingError(
                                f"instance clash: {holder_id!r} and "
                                f"{op.op_id!r} of {process_name}/{block_name} "
                                f"both use {rtype.name}#{instance} at step {step}"
                            )
                    occupancy_map.setdefault(slot_key, []).append(op.op_id)


def bind_instances(result: SystemSchedule) -> InstanceBinding:
    """Bind every operation of a system schedule to an instance.

    Occupancy-1 global types bind through the per-slot id ranges of the
    authorization tables; multicycle global types bind through the
    periodic conflict coloring (:mod:`repro.core.coloring`), which keeps
    one physical instance across each operation's multi-slot span.
    """
    from ..core.coloring import multicycle_coloring

    binding = InstanceBinding(result=result)
    colorings = {}
    for type_name in result.assignment.global_types:
        binding.tables[type_name] = AccessAuthorizationTable.from_result(
            result, type_name
        )
        if result.library.type(type_name).occupancy > 1:
            colorings[type_name] = multicycle_coloring(result, type_name)
    for key in colorings:
        for op_key, color in colorings[key].items():
            binding.binding[op_key] = color
    local_limits: Dict[Tuple[str, str], int] = {}
    for (process_name, block_name), sched in result.block_schedules.items():
        _bind_block(binding, process_name, block_name, colorings, local_limits)
    binding.validate()
    return binding


def _bind_block(
    binding: InstanceBinding,
    process_name: str,
    block_name: str,
    colorings: Dict[str, Dict[OpKey, int]],
    local_limits: Dict[Tuple[str, str], int],
) -> None:
    """Bind one block; ``local_limits`` memoizes the local pool size of
    each (process, type) across the process's blocks."""
    result = binding.result
    sched = result.block_schedules[(process_name, block_name)]
    # Group operations by resource type, then bind each group left-edge.
    by_type: Dict[str, List[str]] = {}
    for op in sched.graph:
        by_type.setdefault(result.library.type_of(op).name, []).append(op.op_id)
    for type_name, op_ids in by_type.items():
        rtype = result.library.type(type_name)
        shared = result.assignment.shares_globally(type_name, process_name)
        if shared and type_name in colorings:
            continue  # multicycle global type: colored in bind_instances
        table = binding.tables.get(type_name) if shared else None
        local_candidates = range(0)
        if table is None:
            key = (process_name, type_name)
            if key not in local_limits:
                local_limits[key] = max(
                    1, result.local_instances(process_name, type_name)
                )
            local_candidates = range(local_limits[key])
        # (instance, step) -> ops holding it (mutually exclusive ops may
        # share an instance at the same step: only one of them executes).
        busy: Dict[Tuple[int, int], List[str]] = {}
        offset = result.offset_of(process_name)
        for op_id in sorted(op_ids, key=lambda oid: (sched.start(oid), oid)):
            op = sched.graph.operation(op_id)
            start = sched.start(op_id)
            steps = range(start, start + rtype.occupancy)
            # Authorization tables are indexed by absolute slots; blocks
            # start at absolute times ≡ offset, so shift relative steps.
            slots = range(start + offset, start + offset + rtype.occupancy)
            instance = _first_free_instance(
                process_name, table, local_candidates, busy, steps, slots, op,
                sched.graph,
            )
            if instance is None:
                raise BindingError(
                    f"no feasible instance for {op_id!r} "
                    f"({type_name}) in {process_name}/{block_name}"
                )
            for step in steps:
                busy.setdefault((instance, step), []).append(op_id)
            binding.binding[(process_name, block_name, op_id)] = instance


def _first_free_instance(
    process_name: str,
    table: Optional[AccessAuthorizationTable],
    local_candidates: range,
    busy: Dict[Tuple[int, int], List[str]],
    steps: range,
    slots: range,
    op,
    graph,
) -> Optional[int]:
    """Smallest compatible instance: from ``local_candidates`` for a local
    type, from the ids ``table`` authorizes at every slot otherwise."""
    if table is None:
        candidates = local_candidates
    else:
        # Ids usable at every absolute slot the occupancy spans.
        usable = None
        for slot in slots:
            ids = set(table.instance_ids(process_name, slot))
            usable = ids if usable is None else usable & ids
        candidates = sorted(usable or ())

    def compatible(instance: int) -> bool:
        for step in steps:
            for holder_id in busy.get((instance, step), ()):
                if not op.excludes(graph.operation(holder_id)):
                    return False
        return True

    for instance in candidates:
        if compatible(instance):
            return instance
    return None
