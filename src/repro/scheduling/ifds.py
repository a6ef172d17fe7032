"""Improved Force-Directed Scheduling (Verhaegh et al., IFDS).

The IFDS refines classic FDS in two ways the paper relies on (§4):

* **Gradual time-frame reduction** — instead of pinning an operation to a
  single step, every iteration only *shrinks one frame by one step*.  For
  each mobile operation the forces of a tentative placement at the two
  outermost ends of its frame are computed; with more than two feasible
  steps the difference is halved (``eta = 1/2``) as a rough estimate for
  the interior placements.  The operation with the largest weighted force
  difference has its frame shortened at the side with the *higher* force,
  removing the worst neighborhood solution.
* **Global spring constants** — per-type weights (typically area costs)
  entering the force sums; see :mod:`repro.scheduling.forces`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..ir.process import Block, Process, SystemSpec
from ..obs.tracer import as_tracer
from ..resources.assignment import ResourceAssignment
from ..resources.library import ResourceLibrary
from ..validation.budget import RunBudget
from .forces import DEFAULT_LOOKAHEAD, placement_force
from .schedule import BlockSchedule
from .state import BlockState


@dataclass(frozen=True)
class ReductionChoice:
    """One gradual-reduction decision: which frame shrinks, at which side."""

    op_id: str
    shrink_low_side: bool
    force_low: float
    force_high: float
    score: float


def evaluate_reduction(
    state: BlockState,
    op_id: str,
    *,
    lookahead: float = DEFAULT_LOOKAHEAD,
    weights: Optional[Mapping[str, float]] = None,
) -> ReductionChoice:
    """Evaluate the IFDS reduction candidate for one mobile operation.

    This is the scalar reference: two ``placement_force`` calls, one
    per frame end.  A brute-force scan over it replays the decisions of
    :class:`ImprovedForceDirectedScheduler`.
    """
    lo, hi = state.frames.frame(op_id)
    force_low = placement_force(state, op_id, lo, lookahead=lookahead, weights=weights)
    force_high = placement_force(state, op_id, hi, lookahead=lookahead, weights=weights)
    eta = 1.0 if hi - lo + 1 <= 2 else 0.5
    score = eta * abs(force_low - force_high)
    # Shrink at the side with the higher force (drop the worst placement);
    # on a (numerical) tie, drop the late side, biasing toward early starts.
    shrink_low_side = force_low > force_high + 1e-12
    return ReductionChoice(
        op_id=op_id,
        shrink_low_side=shrink_low_side,
        force_low=force_low,
        force_high=force_high,
        score=score,
    )


class ImprovedForceDirectedScheduler:
    """Time-constrained IFDS for a single block.

    A block scheduled alone is the coupled scheduler's smallest case:
    one process, one block, no global types.  Periodical alignment and
    global balancing (§5) then change nothing, so :meth:`schedule` runs
    :class:`~repro.core.scheduler.ModuloSystemScheduler` on that
    one-block system.  Decisions are identical to a brute-force scan
    over :func:`evaluate_reduction`.

    ``budget`` optionally bounds the run; on exhaustion the block is
    rescheduled by the list-scheduling fallback and the result is tagged
    ``degraded=True`` instead of the run continuing unbounded.
    """

    def __init__(
        self,
        library: ResourceLibrary,
        *,
        lookahead: float = DEFAULT_LOOKAHEAD,
        weights: Optional[Mapping[str, float]] = None,
        budget: Optional[RunBudget] = None,
        tracer=None,
    ) -> None:
        self.library = library
        self.lookahead = lookahead
        self.weights = weights
        self.budget = budget
        self.tracer = as_tracer(tracer)

    def schedule(self, block: Block) -> BlockSchedule:
        """Schedule one block; returns a validated :class:`BlockSchedule`."""
        # core imports scheduling, so the engine is imported on use.
        from ..core.scheduler import ModuloSystemScheduler

        system = SystemSpec(name=block.name)
        system.add_process(Process(name=block.name, blocks=[block]))
        result = ModuloSystemScheduler(
            self.library,
            lookahead=self.lookahead,
            weights=self.weights,
            budget=self.budget,
            tracer=self.tracer,
        ).schedule(system, ResourceAssignment(self.library))
        schedule = result.block_schedules[(block.name, block.name)]
        schedule.iterations = result.iterations
        return schedule
