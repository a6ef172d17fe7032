"""Classic time-constrained Force-Directed Scheduling (Paulin & Knight).

The original FDS places, at every iteration, every still-mobile operation
tentatively at every step of its frame, evaluates the force of each
placement (self force plus direct predecessor/successor forces), commits
the single placement with the least force, and repeats until every
operation is fixed.  This is the baseline the Improved FDS (and the
paper's modification) build on.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..errors import SchedulingError
from ..ir.process import Block
from ..obs.counters import SCHEDULER_ITERATIONS
from ..obs.events import EVENT_DEGRADE, EVENT_PLACEMENT
from ..obs.logconfig import get_logger
from ..obs.metrics import CANDIDATES_SCANNED, FRAMES_REMAINING
from ..obs.tracer import as_tracer
from ..resources.library import ResourceLibrary
from ..validation.budget import RunBudget
from .fallback import degraded_block_schedule, frames_state_hash
from .forces import DEFAULT_LOOKAHEAD
from .kernels import PlacementKernel
from .schedule import BlockSchedule
from .state import BlockState

_log = get_logger(__name__)


class ForceDirectedScheduler:
    """Time-constrained FDS for a single block.

    Args:
        library: Resource library (latencies, occupancies).
        lookahead: Paulin look-ahead fraction (0 disables look-ahead).
        weights: Optional per-type spring-constant weights.
        budget: Optional :class:`~repro.validation.budget.RunBudget`;
            on exhaustion the run degrades to the list-scheduling
            fallback (``degraded=True``) instead of continuing.
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
        tracer = self.tracer
        state = BlockState(block, self.library)
        kernel = PlacementKernel(
            state, lookahead=self.lookahead, weights=self.weights
        )
        tracker = self.budget.tracker() if self.budget is not None else None
        iterations = 0
        with tracer.activate(), tracer.span("fds", block=block.name):
            while True:
                candidates = state.frames.unfixed()
                if not candidates:
                    break
                if tracker is not None:
                    reason = tracker.tick(frames_state_hash(state, candidates))
                    if reason is not None:
                        _log.warning(
                            "FDS budget exhausted on block %r: %s; "
                            "degrading to list scheduling",
                            block.name,
                            reason,
                        )
                        if tracer.enabled:
                            tracer.event(
                                EVENT_DEGRADE,
                                reason=reason,
                                block=block.name,
                                iteration=iterations,
                                fallback="list_scheduling",
                            )
                        return degraded_block_schedule(
                            block, self.library, reason, iterations=iterations
                        )
                iterations += 1
                batch = []
                for op_id in candidates:
                    lo, hi = state.frames.frame(op_id)
                    batch.extend((op_id, step) for step in range(lo, hi + 1))
                best_force = None
                best_op = None
                best_step = None
                for (op_id, step), force in zip(batch, kernel.forces(batch)):
                    if best_force is None or force < best_force - 1e-12:
                        best_force, best_op, best_step = force, op_id, step
                if best_op is None:  # pragma: no cover - defensive
                    raise SchedulingError("no feasible placement found")
                state.commit_fix(best_op, best_step)
                if tracer.enabled:
                    tracer.count(SCHEDULER_ITERATIONS)
                    tracer.observe(CANDIDATES_SCANNED, len(candidates))
                    tracer.set_gauge(
                        FRAMES_REMAINING, len(state.frames.unfixed())
                    )
                    tracer.event(
                        EVENT_PLACEMENT,
                        iteration=iterations,
                        block=block.name,
                        op=best_op,
                        step=best_step,
                        force=round(best_force, 9),
                        candidates=len(candidates),
                    )
        _log.debug("FDS scheduled block %r in %d iterations", block.name, iterations)
        schedule = BlockSchedule(
            graph=block.graph,
            library=self.library,
            starts=state.frames.as_schedule(),
            deadline=block.deadline,
            iterations=iterations,
        )
        schedule.validate()
        return schedule
