"""Abstract interpretation over the system IR: residue-pressure intervals.

:func:`analyze_problem` bounds, per global type and period residue
class, the slot pressure of *every* grid-admissible schedule of a
:class:`~repro.api.Problem`, without running the scheduler;
:func:`analyze_schedule` folds one concrete
:class:`~repro.core.result.SystemSchedule` exactly (intervals collapse
to points, reproducing the certifier's envelopes).

Soundness of the rotation join (all quantities per type, period ``P``;
``R_p`` the admissible rotation set of process ``p``, ``E_p`` its folded
envelope with ``lo_p <= E_p <= hi_p`` pointwise):

* ``slot_hi[tau] = sum_p max_{rho in R_p} hi_p[(tau - rho) % P]``
  dominates the demand at ``tau`` of every schedule under every
  admissible rotation choice, hence ``upper_peak = max_tau slot_hi``
  dominates the exact peak the certifier enumerates.
* ``slot_lo[tau] = sum_p min_{rho in R_p} lo_p[(tau - rho) % P]`` is a
  demand every rotation choice must generate at ``tau``, so
  ``max_tau slot_lo`` is a sound peak lower bound; so is
  ``max_p max_tau lo_p[tau]`` (a rotation permutes slots — some slot
  carries each process's own envelope peak) and the averaging term
  ``ceil(sum_p sum_tau lo_p[tau] / P)`` (the total demand mass is
  rotation-invariant and some slot carries at least the average).
  ``lower_peak`` is the max of the three.

Offset models mirror the certifier: ``deployed`` uses the configured
offset cosets (singletons under the eq. 3 grid rule ``P | g_p``);
``any`` joins over all ``P`` rotations — the model that stays sound
when :func:`repro.core.offsets.optimize_offsets` re-picks offsets,
which is why the sweep-pruning bounds use it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from ...obs.tracer import as_tracer
from .domain import (
    MODE_PROBLEM,
    MODE_SCHEDULE,
    AbsIntResult,
    ProcessPressure,
    TypePressure,
)
from .transfer import (
    DEFAULT_WIDEN_FLOOR,
    block_step_profiles,
    effective_busy,
    fold_profiles,
)

if TYPE_CHECKING:
    from typing import Any

    from ...api import Problem
    from ...core.result import SystemSchedule

#: Accepted ``offset_model`` spellings (mirrors the certifier).
MODEL_DEPLOYED = "deployed"
MODEL_ANY = "any"
_MODELS = {
    "deployed": MODEL_DEPLOYED,
    "any": MODEL_ANY,
    "any-offset": MODEL_ANY,
}


def _widen_limit(grid: int, period: int, widen_limit: Optional[int]) -> int:
    """Effective widening limit: never below the certifier's lcm quotient."""
    quotient = (grid * period // math.gcd(grid, period)) // period
    if widen_limit is None:
        return max(DEFAULT_WIDEN_FLOOR, quotient)
    return max(widen_limit, quotient, 1)


def _process_pressure(
    process_name: str,
    blocks: List[Tuple[str, "Any"]],
    type_name: str,
    period: int,
    grid: int,
    offset: int,
    model: str,
    library: "Any",
    widen_limit: Optional[int],
    starts_of: Optional[Dict[str, Dict[str, int]]],
) -> ProcessPressure:
    """Join one process's blocks into its interval envelope."""
    limit = _widen_limit(grid, period, widen_limit)
    lo = [0] * period
    hi = [0] * period
    widened = False
    mass_floor = 0
    for block_name, block in blocks:
        starts = None if starts_of is None else starts_of[block_name]
        flo, up = block_step_profiles(block, library, type_name, starts=starts)
        lo_fold, hi_fold, block_widened = fold_profiles(
            flo, up, period, widen_limit=limit
        )
        widened = widened or block_widened
        # Envelope-mass floor: the block forces ``effective_busy`` busy
        # steps, each residue is visited ceil(T_b / P) times, and the
        # envelope of THIS block alone already must absorb the average
        # (sum_tau E >= busy / coverage); maxing over blocks is sound
        # because the process envelope covers every block.
        coverage = max(1, -(-block.deadline // period))
        block_mass = -(-effective_busy(block, library, type_name) // coverage)
        if block_mass > mass_floor:
            mass_floor = block_mass
        # Cross-block join is max for BOTH bounds: the authorization of
        # a process must cover every one of its (non-overlapping, C2)
        # blocks, so each block's folded bounds constrain the envelope.
        for tau in range(period):
            if lo_fold[tau] > lo[tau]:
                lo[tau] = lo_fold[tau]
            if hi_fold[tau] > hi[tau]:
                hi[tau] = hi_fold[tau]
    if model == MODEL_DEPLOYED:
        rotation_step = math.gcd(grid, period)
        rotation_count = period // rotation_step
        rotation_base = offset % period
    else:
        rotation_step = 1
        rotation_count = period
        rotation_base = 0
    return ProcessPressure(
        process=process_name,
        grid=grid,
        offset=offset,
        rotation_base=rotation_base,
        rotation_step=rotation_step,
        rotation_count=rotation_count,
        lo=lo,
        hi=hi,
        widened=widened,
        mass_lo=max(sum(lo), mass_floor),
    )


def join_rotations(
    processes: List[ProcessPressure], period: int
) -> Tuple[List[int], List[int], int, int]:
    """Rotation-join per-process envelopes into slot intervals and peaks.

    Returns ``(slot_lo, slot_hi, lower_peak, upper_peak)``; see the
    module docstring for the soundness argument of each component.
    """
    slot_lo = [0] * period
    slot_hi = [0] * period
    for env in processes:
        rotations = env.rotations()
        for tau in range(period):
            slot_hi[tau] += max(env.hi[(tau - rho) % period] for rho in rotations)
            slot_lo[tau] += min(env.lo[(tau - rho) % period] for rho in rotations)
    upper_peak = max(slot_hi, default=0)
    mass = sum(max(env.mass_lo, sum(env.lo)) for env in processes)
    lower_peak = max(
        max(slot_lo, default=0),
        max((max(env.lo, default=0) for env in processes), default=0),
        -(-mass // period) if mass else 0,
    )
    return slot_lo, slot_hi, lower_peak, upper_peak


def _analyze(
    system: "Any",
    library: "Any",
    assignment: "Any",
    periods: "Any",
    *,
    mode: str,
    model: str,
    pools: Optional[Mapping[str, int]],
    offsets: Optional[Mapping[str, int]],
    starts: Optional[Dict[Tuple[str, str], Dict[str, int]]],
    widen_limit: Optional[int],
    type_names: Optional[List[str]] = None,
) -> AbsIntResult:
    types: List[TypePressure] = []
    for type_name in (
        type_names if type_names is not None else assignment.global_types
    ):
        period = periods.period(type_name)
        pressures: List[ProcessPressure] = []
        for process_name in assignment.group(type_name):
            process = system.process(process_name)
            grid = max(1, periods.process_grid(assignment, process_name))
            offset = 0 if offsets is None else int(offsets.get(process_name, 0))
            starts_of: Optional[Dict[str, Dict[str, int]]] = None
            if starts is not None:
                starts_of = {
                    block.name: starts[(process_name, block.name)]
                    for block in process.blocks
                }
            pressures.append(
                _process_pressure(
                    process_name,
                    [(block.name, block) for block in process.blocks],
                    type_name,
                    period,
                    grid,
                    offset,
                    model,
                    library,
                    widen_limit,
                    starts_of,
                )
            )
        slot_lo, slot_hi, lower_peak, upper_peak = join_rotations(
            pressures, period
        )
        pool = None
        if pools is not None and type_name in pools:
            pool = int(pools[type_name])
        types.append(
            TypePressure(
                type_name=type_name,
                period=period,
                mode=mode,
                offset_model=model,
                pool=pool,
                slot_lo=slot_lo,
                slot_hi=slot_hi,
                lower_peak=lower_peak,
                upper_peak=upper_peak,
                processes=pressures,
            )
        )
    return AbsIntResult(
        system=system.name, mode=mode, offset_model=model, types=types
    )


def _resolve_model(offset_model: str) -> str:
    try:
        return _MODELS[offset_model]
    except KeyError:
        raise ValueError(
            f"unknown offset model {offset_model!r}; use 'deployed' or 'any'"
        ) from None


def analyze_problem(
    problem: "Problem",
    *,
    offset_model: str = MODEL_DEPLOYED,
    pools: Optional[Mapping[str, int]] = None,
    widen_limit: Optional[int] = None,
    tracer: Optional["Any"] = None,
    type_names: Optional[List[str]] = None,
) -> AbsIntResult:
    """Bound the slot pressure of every grid-admissible schedule.

    Runs no scheduler: the transfer functions abstract each operation by
    its mobility window.  ``pools`` optionally names allocations to
    compare against (problem mode has none of its own).
    """
    model = _resolve_model(offset_model)
    tracer = as_tracer(tracer)
    with tracer.activate(), tracer.span(
        "absint", system=problem.system.name, mode=MODE_PROBLEM, model=model
    ):
        return _analyze(
            problem.system,
            problem.library,
            problem.assignment,
            problem.periods,
            mode=MODE_PROBLEM,
            model=model,
            pools=pools,
            offsets=None,
            starts=None,
            widen_limit=widen_limit,
            type_names=type_names,
        )


def analyze_schedule(
    result: "SystemSchedule",
    *,
    offset_model: str = MODEL_DEPLOYED,
    pools: Optional[Mapping[str, int]] = None,
    widen_limit: Optional[int] = None,
    tracer: Optional["Any"] = None,
) -> AbsIntResult:
    """Fold one concrete schedule's exact profiles into the domain.

    Every per-process interval is a point (``lo == hi`` equals the
    certifier's envelope); under deployed singleton cosets the joined
    ``slot_lo == slot_hi`` reproduce
    :meth:`~repro.core.result.SystemSchedule.global_demand`.  Pools
    default to the schedule's own allocations.
    """
    model = _resolve_model(offset_model)
    tracer = as_tracer(tracer)
    starts: Dict[Tuple[str, str], Dict[str, int]] = {
        key: sched.starts for key, sched in result.block_schedules.items()
    }
    merged_pools: Dict[str, int] = {
        type_name: result.global_instances(type_name)
        for type_name in result.assignment.global_types
    }
    if pools is not None:
        merged_pools.update({name: int(v) for name, v in pools.items()})
    with tracer.activate(), tracer.span(
        "absint", system=result.system.name, mode=MODE_SCHEDULE, model=model
    ):
        return _analyze(
            result.system,
            result.library,
            result.assignment,
            result.periods,
            mode=MODE_SCHEDULE,
            model=model,
            pools=merged_pools,
            offsets={
                name: result.offset_of(name)
                for name in result.system.process_names
            },
            starts=starts,
            widen_limit=widen_limit,
        )


# ----------------------------------------------------------------------
# Bound helpers consumed by repro.analysis.bounds
# ----------------------------------------------------------------------
def interval_pool_bound(
    system: "Any",
    library: "Any",
    assignment: "Any",
    periods: "Any",
    type_name: str,
) -> int:
    """Interval lower bound on the pool of one global type.

    Uses the rotation-free (``any``) model so the bound stays admissible
    even when offsets are later re-optimized; for multicycle types the
    coloring pool dominates the peak slot demand, so the bound holds
    there too.
    """
    result = _analyze(
        system,
        library,
        assignment,
        periods,
        mode=MODE_PROBLEM,
        model=MODEL_ANY,
        pools=None,
        offsets=None,
        starts=None,
        widen_limit=None,
        type_names=[type_name],
    )
    return result.types[0].lower_peak


def interval_pool_grids(
    system: "Any",
    assignment: "Any",
    periods: "Any",
    type_name: str,
) -> Tuple[int, ...]:
    """The grids :func:`interval_pool_bound` reads besides the type's period.

    A sharing process's grid enters the bound only through the widening
    limit, which never falls below ``DEFAULT_WIDEN_FLOOR`` period
    windows.  Unless a block of the group spans more windows than that,
    the bound reads no grid and this returns ``()``; otherwise it
    returns every sharing process's grid.
    """
    period = periods.period(type_name)
    group = assignment.group(type_name)
    longest = max(
        (
            block.deadline
            for name in group
            for block in system.process(name).blocks
        ),
        default=0,
    )
    if -(-longest // period) <= DEFAULT_WIDEN_FLOOR:
        return ()
    return tuple(periods.process_grid(assignment, name) for name in group)


def forced_process_bound(
    process: "Any", library: "Any", type_name: str
) -> int:
    """Forced-simultaneity lower bound on one process's local instances.

    The peak of the must-busy profile: operations whose mobility is
    smaller than their occupancy overlap in every feasible schedule, so
    the forced peak can beat the averaging bound on rigid blocks.
    """
    best = 0
    for block in process.blocks:
        flo, _ = block_step_profiles(block, library, type_name)
        peak = max(flo, default=0)
        if peak > best:
            best = peak
    return best
