"""Force computation (eqs. 5-6) with look-ahead and spring constants.

The distribution-graph values act as springs with constants equal to
themselves; displacing them by ``delta`` costs the Hooke's-law force
``sum(D * delta)``.  Paulin & Knight's look-ahead adds a fraction of the
displacement itself to the spring constant, anticipating the distribution
after the move: ``sum(delta * (D + alpha * delta))`` with the classic
``alpha = 1/3``.  Verhaegh et al.'s *global spring constants* weigh the
per-type forces, typically by area cost, so smoothing an expensive
multiplier outweighs smoothing a cheap adder.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional

import numpy as np

from ..obs import counters as _ambient
from ..obs.counters import FORCE_EVALUATIONS, count
from ..obs.metrics import FORCE_EVAL_SECONDS
from ..resources.library import ResourceLibrary
from .distribution import BlockDistributions
from .state import BlockState

#: Paulin & Knight's classic look-ahead fraction.
DEFAULT_LOOKAHEAD = 1.0 / 3.0


def hooke_force(distribution: np.ndarray, delta: np.ndarray, lookahead: float) -> float:
    """Force of displacing ``distribution`` by ``delta`` (eq. 6 + look-ahead)."""
    count(FORCE_EVALUATIONS)
    return float(np.dot(delta, distribution)) + lookahead * float(np.dot(delta, delta))


def uniform_weights(library: ResourceLibrary) -> Dict[str, float]:
    """Spring-constant weights of 1 for every type (no global constants)."""
    return {rtype.name: 1.0 for rtype in library.types}


def area_weights(library: ResourceLibrary) -> Dict[str, float]:
    """Spring-constant weights equal to area costs (global spring constants)."""
    return {rtype.name: float(rtype.area) for rtype in library.types}


def force_from_deltas(
    dist: BlockDistributions,
    deltas: Mapping[str, np.ndarray],
    *,
    lookahead: float = DEFAULT_LOOKAHEAD,
    weights: Optional[Mapping[str, float]] = None,
) -> float:
    """Weighted Hooke force of a set of per-type displacements.

    This is the scalar local force.  :func:`placement_force` sums it
    over all displaced types, and the brute-force oracle
    :class:`repro.core.reference.ReferenceScheduler` delegates to it for
    types that are not globally shared (global types route through the
    balanced system distribution instead).  The production schedulers
    fold the same terms in :mod:`repro.scheduling.kernels`.
    """
    total = 0.0
    for type_name, delta in deltas.items():
        weight = 1.0 if weights is None else float(weights.get(type_name, 1.0))
        total += weight * hooke_force(dist.array(type_name), delta, lookahead)
    return total


def placement_force(
    state: BlockState,
    op_id: str,
    start: int,
    *,
    lookahead: float = DEFAULT_LOOKAHEAD,
    weights: Optional[Mapping[str, float]] = None,
) -> float:
    """Total force of tentatively placing ``op_id`` at ``start``.

    Sums, over every resource type displaced by the placement (the
    operation's own type plus the types of implicitly reduced direct
    neighbors), the weighted Hooke's-law force.  Negative values mean the
    placement smooths the distributions.

    When an ambient metrics registry is active the evaluation latency is
    recorded in the ``force_eval_seconds`` histogram; the uninstrumented
    path pays one global load and a ``None`` check.
    """
    if _ambient._active is None:
        return force_from_deltas(
            state.dist,
            state.placement_deltas(op_id, start),
            lookahead=lookahead,
            weights=weights,
        )
    started = time.perf_counter()
    force = force_from_deltas(
        state.dist,
        state.placement_deltas(op_id, start),
        lookahead=lookahead,
        weights=weights,
    )
    _ambient._active.registry.observe(
        FORCE_EVAL_SECONDS, time.perf_counter() - started
    )
    return force
