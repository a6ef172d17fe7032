"""Memoized per-operation selection scores with dirty-set invalidation.

Force-directed schedulers re-evaluate, at every iteration, a selection
score for every still-mobile operation — yet each committed reduction
only perturbs a small *dirty set*.  An operation's tentative-placement
force depends on exactly three kinds of state:

* its own time frame (the evaluated endpoints and the ``eta`` width
  factor);
* the frames and rows of its *direct* predecessors/successors (classic
  FDS evaluates first-order implied reductions only);
* the distribution graphs of the resource types in its *footprint* —
  its own type plus the types of its direct neighbors.

A :class:`BlockSelectionCache` therefore keeps one opaque value per
operation (FDS stores a per-step force list) and, after each commit,
drops exactly the entries whose inputs may have moved:

* operations whose frames changed (including precedence propagation),
* direct neighbors of those operations,
* operations whose footprint intersects the touched resource types.

Cached values are byte-identical to a fresh evaluation — the cache
changes *when* forces are computed, never *what* they evaluate to —
which is pinned by the decision-parity tests.  The coupled scheduler
keeps its own persistent state, which separates the first two rules
(its rows go stale) from the third (only its folds do); see
:class:`repro.core.scheduler._SystemKernel`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from ..obs.counters import (
    FORCE_CACHE_HITS,
    FORCE_CACHE_INVALIDATIONS,
    FORCE_CACHE_MISSES,
    count,
    observe,
)
from ..obs.metrics import DIRTY_SET_SIZE
from .state import BlockState, ReductionEffect


class BlockSelectionCache:
    """Per-block memo of selection evaluations, invalidated by dirty sets."""

    def __init__(self, state: BlockState) -> None:
        self.state = state
        graph = state.graph
        type_of = state.dist.type_of
        self._neighbors: Dict[str, Tuple[str, ...]] = {}
        ops_touching: Dict[str, list] = {}
        for op_id in graph.op_ids:
            neighbors = tuple(graph.predecessors(op_id)) + tuple(
                graph.successors(op_id)
            )
            self._neighbors[op_id] = neighbors
            footprint = {type_of[op_id]}
            footprint.update(type_of[n] for n in neighbors)
            for type_name in footprint:
                ops_touching.setdefault(type_name, []).append(op_id)
        self._ops_touching_type: Dict[str, Tuple[str, ...]] = {
            type_name: tuple(ops) for type_name, ops in ops_touching.items()
        }
        self._store: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, op_id: str) -> Optional[Any]:
        """Cached value for ``op_id``; counts a hit or a miss."""
        value = self._store.get(op_id)
        count(FORCE_CACHE_HITS if value is not None else FORCE_CACHE_MISSES)
        return value

    def put(self, op_id: str, value: Any) -> None:
        self._store[op_id] = value

    def __len__(self) -> int:
        return len(self._store)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_ops(self, ops: Iterable[str]) -> int:
        """Drop cached values for ``ops``; returns how many were present."""
        removed = 0
        for op_id in ops:
            if self._store.pop(op_id, None) is not None:
                removed += 1
        if removed:
            count(FORCE_CACHE_INVALIDATIONS, removed)
        return removed

    def invalidate_after_commit(self, effect: ReductionEffect) -> int:
        """Apply the local dirty-set rules after one committed reduction."""
        dirty = set(effect.changed_ops)
        for op_id in effect.changed_ops:
            dirty.update(self._neighbors[op_id])
        for type_name in effect.touched_types:
            dirty.update(self._ops_touching_type.get(type_name, ()))
        observe(DIRTY_SET_SIZE, len(dirty))
        return self.invalidate_ops(dirty)
