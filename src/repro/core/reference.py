"""Brute-force reference oracle for the coupled scheduler's selection.

:class:`ReferenceScheduler` is :class:`~repro.core.scheduler.ModuloSystemScheduler`
with the production selection engine swapped for the plain scan of
§5: every iteration evaluates both frame-end forces of every mobile
operation afresh (:meth:`ReferenceScheduler._placement_force`) and
folds ``eta * |F_low - F_high|`` in scan order.  Nothing is cached, so
a commit needs no bookkeeping.

Production decisions, schedules and areas must equal the oracle's bit
for bit (the ``tests/core/test_*_parity.py`` suites).  The oracle is one to
two orders of magnitude slower; use it for tests and for the A5
scaling bench's ``uncached`` arm, never in production.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..obs.audit import CACHE_UNCACHED, CandidateAudit
from ..scheduling.forces import force_from_deltas, hooke_force
from .modulo import modulo_max
from .scheduler import ModuloSystemScheduler, _Entry, _GlobalCoupling

__all__ = ["ReferenceScheduler"]


class ReferenceScheduler(ModuloSystemScheduler):
    """The coupled scheduler with an uncached, full-rescan selection."""

    def _selector(
        self, entries: List[_Entry], coupling: _GlobalCoupling
    ) -> "_BruteForceSelector":
        return _BruteForceSelector(self, entries, coupling)

    def _placement_force(
        self,
        entry_index: int,
        entry: _Entry,
        coupling: _GlobalCoupling,
        op_id: str,
        start: int,
    ) -> float:
        """Modified force F' (§5.3) of tentatively placing ``op_id`` at ``start``.

        Sums, over the displaced types in first-occurrence order, the
        weighted Hooke force of each type's displacement.  A local type
        uses the block's own distribution (a purely local placement is
        :func:`repro.scheduling.forces.force_from_deltas` verbatim).  A
        shared type is modulo-max folded (eq. 7); with global balancing
        its displacement is the change of the process maximum (eq. 9)
        against the system distribution ``S``, without it the change of
        the block's own fold against that fold.
        """
        state = entry.state
        deltas = state.placement_deltas(op_id, start)
        process_name = entry.process_name
        if not self.periodical_alignment or not any(
            coupling.is_shared(process_name, type_name) for type_name in deltas
        ):
            return force_from_deltas(
                state.dist, deltas, lookahead=self.lookahead, weights=self.weights
            )
        total = 0.0
        for type_name, delta in deltas.items():
            weight = (
                1.0 if self.weights is None else float(self.weights.get(type_name, 1.0))
            )
            if not coupling.is_shared(process_name, type_name):
                base, change = state.dist.array(type_name), delta
            else:
                displaced = state.dist.array(type_name) + delta
                q_new = modulo_max(displaced, coupling.period(type_name))
                if self.global_balancing:
                    others = coupling.other_blocks_max(entry_index, type_name)
                    base = coupling.system_distribution(type_name)
                    change = np.maximum(others, q_new) - coupling.process_max(
                        process_name, type_name
                    )
                else:
                    base = coupling.block_q(entry_index, type_name)
                    change = q_new - base
            total += weight * hooke_force(base, change, self.lookahead)
        return total


class _BruteForceSelector:
    """Selects with a fresh force evaluation per candidate and frame end."""

    def __init__(
        self,
        scheduler: ReferenceScheduler,
        entries: List[_Entry],
        coupling: _GlobalCoupling,
    ) -> None:
        self.scheduler = scheduler
        self.entries = entries
        self.coupling = coupling

    def select(
        self, *, collect: Optional[list] = None, want_detail: bool = False
    ) -> Optional[Tuple[int, str, bool, float, int, Optional[Tuple]]]:
        """Same contract as :meth:`repro.core.scheduler._SystemKernel.select`."""
        force = self.scheduler._placement_force
        coupling = self.coupling
        best: Optional[Tuple[float, int, str, float, float]] = None
        candidates = 0
        for index, entry in enumerate(self.entries):
            frames = entry.state.frames
            for op_id in frames.unfixed():
                candidates += 1
                lo, hi = frames.frame(op_id)
                force_low = force(index, entry, coupling, op_id, lo)
                force_high = force(index, entry, coupling, op_id, hi)
                eta = 1.0 if hi - lo + 1 <= 2 else 0.5
                score = eta * abs(force_low - force_high)
                if collect is not None:
                    collect.append(
                        CandidateAudit(
                            process=entry.process_name,
                            block=entry.block.name,
                            op=op_id,
                            force_low=force_low,
                            force_high=force_high,
                            score=score,
                            cache=CACHE_UNCACHED,
                        )
                    )
                if best is None or score > best[0] + 1e-12:
                    best = (score, index, op_id, force_low, force_high)
        if best is None:
            return None
        score, index, op_id, force_low, force_high = best
        detail = (force_low, force_high, CACHE_UNCACHED) if want_detail else None
        return (
            index,
            op_id,
            force_low > force_high + 1e-12,
            score,
            candidates,
            detail,
        )

    def note_commit(self, entry_index, effect, scopes) -> None:
        """Nothing is cached, so a commit invalidates nothing."""
