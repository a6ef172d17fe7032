"""Transfer functions: block IR -> sound per-step occupancy profiles.

The abstract state of one block is a pair of integer step profiles
``(flo, up)`` with ``flo[j] <= usage[j] <= up[j]`` for the concurrent
usage of one resource type at block-relative step ``j`` under *any*
schedule the mode abstracts over:

* **problem mode** derives the profiles from mobility.  An operation
  with start frame ``[asap, alap]`` and occupancy ``c`` *may* be busy at
  step ``j`` iff ``asap <= j <= alap + c - 1`` (some feasible start
  covers ``j``) and is *forced* busy iff ``alap <= j <= asap + c - 1``
  (every feasible start covers ``j``; nonempty exactly when the
  mobility is smaller than the occupancy).  Both profiles combine guard
  branches like
  :meth:`repro.scheduling.schedule.BlockSchedule.usage_profile` does —
  per condition, the pointwise-maximal branch counts.  That is sound
  for the lower profile too because the concrete quantity being
  bounded is the *authorization* profile, which is itself the
  worst case over branch outcomes: for any schedule,
  ``usage[j] = unguarded(j) + sum_c max_b branch_sum(j)``, and each
  branch sum dominates its own forced sum.

* **schedule mode** uses the concrete start times: both profiles equal
  the exact :meth:`usage_profile`, so every interval is a point and the
  analysis reproduces the certifier's envelopes.

Folding onto the period axis takes the maximum over ``j ≡ tau (mod P)``
for *both* bounds: the per-process envelope is itself a max over steps
(condition C2 — at most one block of a process is active, and within a
block the authorization covers the worst folded step), so
``max_{j≡tau} flo[j] <= E_p[tau] <= max_{j≡tau} up[j]``.

**Widening.**  A block folds ``ceil(T / P)`` steps onto every residue.
When that quotient exceeds the widening limit (never smaller than the
lcm quotient ``lcm(g_p, P) / P`` the certifier's rotation reduction is
built on), only the first ``limit * P`` steps of the upper profile are
folded exactly; the remaining tail contributes ``[0, n_tail]`` where
``n_tail`` counts the operations whose may-window reaches the tail —
each operation occupies at most one instance at a time, so the count is
a sound (if coarse) upper bound.  The must-busy profile is folded over
the whole block, which costs the same ``O(T)`` as building it, so the
lower bound never depends on the limit (nor, through it, on the
sharing processes' grids).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...ir.dfg import DataFlowGraph
from ...ir.process import Block
from ...obs.counters import ABSINT_TRANSFERS, ABSINT_WIDENINGS, count
from ...resources.library import ResourceLibrary

#: Periods-per-block floor below which widening never triggers; chosen
#: far above every paper-scale workload so widening is an asymptotic
#: safety valve, not a precision loss in practice.
DEFAULT_WIDEN_FLOOR = 64


def mobility_frames(
    block: Block, library: ResourceLibrary
) -> Dict[str, Tuple[int, int]]:
    """Unconstrained ``[asap, alap]`` start frames of one block.

    Forward/backward longest path against the block deadline; never
    raises.  An infeasible frame (``asap > alap`` — no schedule exists)
    is clamped to ``[asap, asap]``: the abstraction stays defined and,
    vacuously, sound.
    """
    graph: DataFlowGraph = block.graph
    latency_of = library.latency_of
    asap: Dict[str, int] = {}
    order = graph.topological_order()
    for oid in order:
        asap[oid] = max(
            (
                asap[pred] + latency_of(graph.operation(pred))
                for pred in graph.predecessors(oid)
            ),
            default=0,
        )
    alap: Dict[str, int] = {}
    for oid in reversed(order):
        finish = min(
            (alap[succ] for succ in graph.successors(oid)),
            default=block.deadline,
        )
        alap[oid] = finish - latency_of(graph.operation(oid))
    return {oid: (asap[oid], max(asap[oid], alap[oid])) for oid in order}


def _window(
    frame: Tuple[int, int], occupancy: int, deadline: int
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """May- and must-busy step ranges (half-open) of one operation."""
    asap, alap = frame
    may = (max(0, asap), min(deadline, alap + occupancy))
    must = (max(0, alap), min(deadline, asap + occupancy))
    return may, must


def block_step_profiles(
    block: Block,
    library: ResourceLibrary,
    type_name: str,
    *,
    starts: Optional[Dict[str, int]] = None,
) -> Tuple[List[int], List[int]]:
    """Sound per-step ``(flo, up)`` usage profiles of one block.

    With ``starts`` (schedule mode) both profiles are the exact
    guard-aware usage profile; without, they come from mobility frames
    (problem mode).
    """
    deadline = block.deadline
    flo = [0] * deadline
    up = [0] * deadline
    frames = None if starts is not None else mobility_frames(block, library)
    # Guard-aware accumulation mirrors BlockSchedule.usage_profile: rows
    # of branches of one condition are summed per branch, then the
    # pointwise-maximal branch is added.
    up_branches: Dict[str, Dict[str, List[int]]] = {}
    flo_branches: Dict[str, Dict[str, List[int]]] = {}
    transfers = 0
    for op in block.graph:
        rtype = library.type_of(op)
        if rtype.name != type_name:
            continue
        transfers += 1
        if starts is not None:
            start = starts[op.op_id]
            may = (start, min(deadline, start + rtype.occupancy))
            must = may
        else:
            assert frames is not None
            may, must = _window(frames[op.op_id], rtype.occupancy, deadline)
        if op.guard is None:
            for j in range(*may):
                up[j] += 1
            for j in range(*must):
                flo[j] += 1
        else:
            condition, branch = op.guard
            row = up_branches.setdefault(condition, {}).setdefault(
                branch, [0] * deadline
            )
            for j in range(*may):
                row[j] += 1
            row_lo = flo_branches.setdefault(condition, {}).setdefault(
                branch, [0] * deadline
            )
            for j in range(*must):
                row_lo[j] += 1
    for per_branch in up_branches.values():
        rows = list(per_branch.values())
        for j in range(deadline):
            up[j] += max(row[j] for row in rows)
    for per_branch in flo_branches.values():
        rows = list(per_branch.values())
        for j in range(deadline):
            flo[j] += max(row[j] for row in rows)
    count(ABSINT_TRANSFERS, transfers)
    return flo, up


def effective_busy(
    block: Block, library: ResourceLibrary, type_name: str
) -> int:
    """Guard-aware busy-step mass one block forces onto one type.

    Every schedule runs each unguarded operation for its full occupancy;
    for guarded operations the authorization profile carries, per
    condition, at least the heaviest branch
    (``sum_j max_b branch[j] >= max_b sum_j branch[j]``).  The mass is
    placement-independent, so it lower-bounds ``sum_j usage[j]`` of any
    schedule — the guard-sound refinement of
    :func:`repro.analysis.bounds._busy_steps`.
    """
    unguarded = 0
    branch_mass: Dict[str, Dict[str, int]] = {}
    for op in block.graph:
        rtype = library.type_of(op)
        if rtype.name != type_name:
            continue
        if op.guard is None:
            unguarded += rtype.occupancy
        else:
            condition, branch = op.guard
            per_branch = branch_mass.setdefault(condition, {})
            per_branch[branch] = per_branch.get(branch, 0) + rtype.occupancy
    return unguarded + sum(
        max(per_branch.values()) for per_branch in branch_mass.values()
    )


def fold_profiles(
    flo: List[int],
    up: List[int],
    period: int,
    *,
    widen_limit: Optional[int] = None,
) -> Tuple[List[int], List[int], bool]:
    """Fold step profiles onto the period axis (max over ``j ≡ tau``).

    Returns ``(lo_fold, hi_fold, widened)``.  The must-busy profile
    ``flo`` is folded over the whole block.  With a ``widen_limit`` and
    more than that many period windows, steps of ``up`` past
    ``widen_limit * P`` are widened: they add ``[0, coarse]`` to the
    residues the tail touches, where ``coarse`` is the tail's maximum
    possible concurrent usage bounded by the pointwise profile maximum
    over the tail.  So ``lo_fold`` never depends on the limit.
    """
    steps = len(up)
    windows = -(-steps // period) if steps else 0
    cut = steps
    widened = False
    if widen_limit is not None and windows > widen_limit:
        cut = widen_limit * period
        widened = True
    lo_fold = [0] * period
    hi_fold = [0] * period
    for j in range(steps):
        tau = j % period
        if flo[j] > lo_fold[tau]:
            lo_fold[tau] = flo[j]
        if j < cut and up[j] > hi_fold[tau]:
            hi_fold[tau] = up[j]
    if widened:
        coarse = max(up[cut:], default=0)
        touched = (
            range(period) if steps - cut >= period else [j % period for j in range(cut, steps)]
        )
        for tau in touched:
            if coarse > hi_fold[tau]:
                hi_fold[tau] = coarse
        count(ABSINT_WIDENINGS)
    return lo_fold, hi_fold, widened
