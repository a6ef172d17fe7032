"""Force-Directed List Scheduling (FDLS, Paulin & Knight §VI).

The resource-constrained sibling of FDS: operations are scheduled cycle
by cycle like a list scheduler, but when a control step is over-
subscribed the *deferral force* decides which candidates wait — the
operation whose deferral (frame reduced to ``[t+1, hi]``) yields the
lowest force is deferred first, keeping the distribution graphs smooth
instead of relying on a static urgency priority.

Latency minimization wraps the per-deadline pass: starting from the
critical path, the deadline grows until a pass succeeds (a pass fails
when an operation whose frame has collapsed onto the current step finds
no free unit and can no longer be deferred).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from ..errors import InfeasibleError, SchedulingError
from ..ir.process import Block
from ..obs.logconfig import get_logger
from ..obs.tracer import as_tracer
from ..resources.library import ResourceLibrary
from ..resources.types import ResourceType
from .forces import DEFAULT_LOOKAHEAD, hooke_force
from .schedule import BlockSchedule
from .state import BlockState

_log = get_logger(__name__)


class ForceDirectedListScheduler:
    """Resource-constrained FDLS for a single block.

    Args:
        library: Resource library.
        capacity: Instances available per resource type name.
        lookahead: Look-ahead fraction for the deferral forces.
        max_extension: Safety bound on deadline growth beyond the critical
            path; defaults to the total occupancy of the block (which
            always suffices: fully serial execution on one unit per type).
    """

    def __init__(
        self,
        library: ResourceLibrary,
        capacity: Mapping[str, int],
        *,
        lookahead: float = DEFAULT_LOOKAHEAD,
        max_extension: Optional[int] = None,
        tracer=None,
    ) -> None:
        self.library = library
        self.capacity = dict(capacity)
        self.lookahead = lookahead
        self.max_extension = max_extension
        self.tracer = as_tracer(tracer)
        for name, count in self.capacity.items():
            library.type(name)
            if count < 1:
                raise SchedulingError(f"capacity of {name!r} must be >= 1")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def schedule(self, block: Block) -> BlockSchedule:
        """Find the smallest deadline admitting an FDLS pass."""
        graph = block.graph
        for rtype in self.library.types_used_by(graph):
            if rtype.name not in self.capacity:
                raise SchedulingError(f"no capacity given for type {rtype.name!r}")
        critical = graph.critical_path_length(self.library.latency_of)
        limit = self.max_extension
        if limit is None:
            limit = sum(self.library.latency_of(op) for op in graph)
        tracer = self.tracer
        with tracer.activate(), tracer.span("fdls", block=block.name):
            for deadline in range(critical, critical + limit + 1):
                schedule = self._pass(block, deadline)
                if tracer.enabled:
                    tracer.event(
                        "fdls_pass",
                        block=block.name,
                        deadline=deadline,
                        success=schedule is not None,
                    )
                if schedule is not None:
                    schedule.validate()
                    _log.debug(
                        "FDLS scheduled block %r at deadline %d",
                        block.name,
                        deadline,
                    )
                    return schedule
        raise SchedulingError(
            f"FDLS found no schedule up to deadline {critical + limit}"
        )

    # ------------------------------------------------------------------
    # One pass at a fixed deadline
    # ------------------------------------------------------------------
    def _pass(self, block: Block, deadline: int) -> Optional[BlockSchedule]:
        trial = Block(
            name=block.name,
            graph=block.graph,
            deadline=deadline,
            repeats=block.repeats,
        )
        try:
            state = BlockState(trial, self.library)
        except InfeasibleError:
            return None
        usage: Dict[str, List[int]] = {
            name: [0] * (deadline + 1) for name in self.capacity
        }
        placed: Set[str] = set()
        for step in range(deadline):
            if not self._schedule_step(state, usage, placed, step):
                return None
            if len(placed) == len(block.graph):
                break
        if len(placed) != len(block.graph):
            return None
        return BlockSchedule(
            graph=block.graph,
            library=self.library,
            starts=state.frames.as_schedule(),
            deadline=deadline,
            iterations=deadline,
        )

    def _schedule_step(
        self,
        state: BlockState,
        usage: Dict[str, List[int]],
        placed: Set[str],
        step: int,
    ) -> bool:
        ready = [
            oid
            for oid in state.graph.op_ids
            if oid not in placed and state.frames.lo(oid) == step
        ]
        by_type: Dict[str, List[str]] = {}
        for oid in ready:
            by_type.setdefault(state.dist.type_of[oid], []).append(oid)

        for type_name, wanting in by_type.items():
            rtype = self.library.type(type_name)
            free = self._free_capacity(usage, rtype, step)
            deferrable = [oid for oid in wanting if state.frames.hi(oid) > step]
            must_place = len(wanting) - len(deferrable)
            if must_place > free:
                return False  # collapsed frames exceed the capacity
            # Defer force-cheapest candidates until the step fits.
            while len(wanting) > free:
                if not deferrable:
                    return False
                victim = self._cheapest_deferral(state, deferrable, step)
                try:
                    state.commit_reduce(victim, step + 1, state.frames.hi(victim))
                except InfeasibleError:
                    return False
                deferrable.remove(victim)
                wanting.remove(victim)
            for oid in wanting:
                if state.frames.lo(oid) != step:
                    continue  # pushed past this step by propagation
                try:
                    state.commit_fix(oid, step)
                except InfeasibleError:
                    return False
                placed.add(oid)
                self._occupy(usage, rtype, step)
        return True

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    def _free_capacity(
        self, usage: Dict[str, List[int]], rtype: ResourceType, step: int
    ) -> int:
        row = usage[rtype.name]
        window = row[step : step + rtype.occupancy]
        used = max(window) if window else 0
        return self.capacity[rtype.name] - used

    def _occupy(
        self, usage: Dict[str, List[int]], rtype: ResourceType, step: int
    ) -> None:
        row = usage[rtype.name]
        for s in range(step, min(step + rtype.occupancy, len(row))):
            row[s] += 1

    # ------------------------------------------------------------------
    # Deferral forces
    # ------------------------------------------------------------------
    def _cheapest_deferral(
        self, state: BlockState, candidates: List[str], step: int
    ) -> str:
        """The candidate whose deferral to ``step + 1`` costs least force."""
        best_oid: Optional[str] = None
        best_force = 0.0
        for oid in sorted(candidates):
            hi = state.frames.hi(oid)
            delta = state.dist.tentative_row(oid, step + 1, hi) - state.dist.row(oid)
            type_name = state.dist.type_of[oid]
            force = hooke_force(state.dist.array(type_name), delta, self.lookahead)
            if best_oid is None or force < best_force - 1e-12:
                best_oid = oid
                best_force = force
        assert best_oid is not None
        return best_oid
