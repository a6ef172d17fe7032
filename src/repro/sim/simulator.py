"""Cycle-accurate multi-process simulation of a scheduled system.

The simulator exercises the paper's central safety claim dynamically:
processes are triggered by *spontaneous events* at random cycles (the
situation that makes process merging impossible), block start times snap
to the period grid (eq. 2/3), and at every cycle the concurrent usage of
every resource type is checked against the statically derived instance
counts and per-slot access authorizations.  Any violation is recorded —
a correct schedule produces none, for every seed.

Blocks marked ``repeats`` model loop bodies with unbounded iteration
count: on completion they re-arm immediately with a random iteration
count.  Guarded (conditional) operations are resolved per activation: a
random branch outcome is drawn for every condition, and only the taken
branch's operations occupy resources — always at or below the statically
authorized worst case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..core.result import SystemSchedule
from ..obs.counters import AUTHORIZATION_CHECKS, SIMULATION_CYCLES, count
from ..obs.logconfig import get_logger
from ..obs.tracer import as_tracer
from .trace import Activation, Trace, Violation

_log = get_logger(__name__)


@dataclass
class SimulationStats:
    """Aggregate outcome of one simulation run."""

    cycles: int
    seed: int
    activations: Dict[str, int]
    busy_cycles: Dict[str, int]
    pool_sizes: Dict[str, int]
    peak_usage: Dict[str, int]
    trace: Trace

    @property
    def ok(self) -> bool:
        return not self.trace.violations

    def utilization(self, type_name: str) -> float:
        """Busy instance-cycles over available instance-cycles."""
        pool = self.pool_sizes.get(type_name, 0)
        if pool == 0 or self.cycles == 0:
            return 0.0
        return self.busy_cycles.get(type_name, 0) / (pool * self.cycles)

    def summary(self) -> str:
        lines = [f"simulated {self.cycles} cycles (seed {self.seed})"]
        for process, count in self.activations.items():
            lines.append(f"  {process}: {count} activations")
        for type_name, pool in self.pool_sizes.items():
            lines.append(
                f"  {type_name}: pool {pool}, peak {self.peak_usage.get(type_name, 0)}, "
                f"utilization {self.utilization(type_name):.1%}"
            )
        lines.append("  violations: " + ("none" if self.ok else
                                          str(len(self.trace.violations))))
        return "\n".join(lines)


@dataclass
class _BlockModel:
    """Precomputed execution profiles of one block."""

    name: str
    makespan: int
    repeats: bool
    #: type -> usage of unconditional operations
    unguarded: Dict[str, np.ndarray]
    #: type -> condition -> branch -> usage of that branch's operations
    guarded: Dict[str, Dict[str, Dict[str, np.ndarray]]]
    #: condition -> branch labels
    conditions: Dict[str, List[str]]

    def sample_profiles(self, rng: random.Random) -> Dict[str, np.ndarray]:
        """Usage profiles for one activation with random branch outcomes."""
        if not self.conditions:
            return self.unguarded
        chosen = {
            condition: rng.choice(branches)
            for condition, branches in self.conditions.items()
        }
        profiles: Dict[str, np.ndarray] = {}
        for type_name, base in self.unguarded.items():
            total = base.copy()
            for condition, per_branch in self.guarded.get(type_name, {}).items():
                taken = per_branch.get(chosen[condition])
                if taken is not None:
                    total += taken
            profiles[type_name] = total
        return profiles


@dataclass
class _ProcessState:
    """Run-time state of one simulated process."""

    blocks: List[_BlockModel]
    grid: int
    offset: int = 0
    next_block: int = 0
    pending_since: Optional[int] = None
    active_block: Optional[int] = None
    active_profiles: Dict[str, np.ndarray] = field(default_factory=dict)
    active_start: int = 0
    active_length: int = 0


class SystemSimulator:
    """Replays a system schedule under random spontaneous triggering.

    Args:
        result: A complete system schedule.
        seed: RNG seed; runs are fully reproducible.
        trigger_probability: Per-cycle chance an idle process is triggered.
        tracer: Observability sink; the default no-op tracer records
            nothing and costs nothing.
    """

    def __init__(
        self,
        result: SystemSchedule,
        *,
        seed: int = 0,
        trigger_probability: float = 0.25,
        tracer=None,
    ) -> None:
        if not 0.0 < trigger_probability <= 1.0:
            raise SimulationError(
                f"trigger probability must be in (0, 1], got {trigger_probability}"
            )
        self.result = result
        self.seed = seed
        self.trigger_probability = trigger_probability
        self.tracer = as_tracer(tracer)
        self._type_names = [t.name for t in result.library.types]
        self._pools = dict(result.instance_counts())
        self._states = self._build_states()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _build_states(self) -> Dict[str, _ProcessState]:
        states: Dict[str, _ProcessState] = {}
        for process in self.result.system.processes:
            models = []
            for block in process.blocks:
                models.append(self._build_block_model(process.name, block))
            grid = max(1, self.result.grid_spacing(process.name))
            offset = self.result.offset_of(process.name) % grid
            states[process.name] = _ProcessState(
                blocks=models, grid=grid, offset=offset
            )
        return states

    def _build_block_model(self, process_name: str, block) -> _BlockModel:
        sched = self.result.schedule_of(process_name, block.name)
        length = sched.makespan
        unguarded: Dict[str, np.ndarray] = {}
        guarded: Dict[str, Dict[str, Dict[str, np.ndarray]]] = {}
        for rtype in self.result.library.types_used_by(block.graph):
            unguarded[rtype.name] = np.zeros(length, dtype=int)
        for op in block.graph:
            rtype = self.result.library.type_of(op)
            start = sched.start(op.op_id)
            row = np.zeros(length, dtype=int)
            row[start : start + rtype.occupancy] += 1
            if op.guard is None:
                unguarded[rtype.name] += row
            else:
                condition, branch = op.guard
                per_branch = guarded.setdefault(rtype.name, {}).setdefault(
                    condition, {}
                )
                if branch in per_branch:
                    per_branch[branch] += row
                else:
                    per_branch[branch] = row
        return _BlockModel(
            name=block.name,
            makespan=length,
            repeats=block.repeats,
            unguarded=unguarded,
            guarded=guarded,
            conditions=block.graph.conditions(),
        )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self, cycles: int, *, seed: Optional[int] = None) -> SimulationStats:
        """Simulate the given number of cycles and return statistics.

        ``seed`` overrides the constructor seed for this run only, so
        one simulator can drive a multi-seed campaign; the stats always
        report the seed actually used.
        """
        if cycles < 1:
            raise SimulationError(f"need >= 1 cycle, got {cycles}")
        run_seed = self.seed if seed is None else seed
        rng = random.Random(run_seed)
        # Reset run-time process state: trials must not leak in-flight
        # blocks or pending triggers from a previous seed into the next
        # one.  The precomputed block models are kept as-is.
        for state in self._states.values():
            state.next_block = 0
            state.pending_since = None
            state.active_block = None
            state.active_profiles = {}
            state.active_start = 0
            state.active_length = 0
        trace = Trace()
        activations = {name: 0 for name in self.result.system.process_names}
        busy = {name: 0 for name in self._type_names}
        peak = {name: 0 for name in self._type_names}

        tracer = self.tracer
        with tracer.activate(), tracer.span(
            "simulate", cycles=cycles, seed=run_seed
        ):
            if tracer.enabled:
                tracer.count(SIMULATION_CYCLES, cycles)
            for cycle in range(cycles):
                self._advance_triggers(cycle, rng, trace, activations)
                usage_total: Dict[str, int] = {name: 0 for name in self._type_names}
                usage_by_process: Dict[Tuple[str, str], int] = {}
                for process_name, state in self._states.items():
                    if state.active_block is None:
                        continue
                    rel = cycle - state.active_start
                    for type_name, profile in state.active_profiles.items():
                        if rel < profile.size:
                            used = int(profile[rel])
                            if used:
                                usage_total[type_name] += used
                                usage_by_process[(process_name, type_name)] = used
                    if rel + 1 >= state.active_length:
                        self._finish_block(state, cycle, rng)
                self._check_cycle(cycle, usage_total, usage_by_process, trace)
                for type_name, used in usage_total.items():
                    busy[type_name] += used
                    peak[type_name] = max(peak[type_name], used)

        _log.info(
            "simulated %d cycles (seed %d): %d activations, %d violations",
            cycles,
            run_seed,
            sum(activations.values()),
            len(trace.violations),
        )
        return SimulationStats(
            cycles=cycles,
            seed=run_seed,
            activations=activations,
            busy_cycles=busy,
            pool_sizes=self._pools,
            peak_usage=peak,
            trace=trace,
        )

    def _advance_triggers(
        self,
        cycle: int,
        rng: random.Random,
        trace: Trace,
        activations: Dict[str, int],
    ) -> None:
        for process_name, state in self._states.items():
            if state.active_block is not None:
                continue
            if state.pending_since is None:
                if rng.random() < self.trigger_probability:
                    state.pending_since = cycle
            aligned = (cycle - state.offset) % state.grid == 0
            if state.pending_since is not None and aligned:
                index = state.next_block
                model = state.blocks[index]
                state.active_block = index
                state.active_profiles = model.sample_profiles(rng)
                state.active_start = cycle
                state.active_length = model.makespan
                state.next_block = (index + 1) % len(state.blocks)
                activations[process_name] += 1
                trace.activations.append(
                    Activation(
                        process=process_name,
                        block=model.name,
                        requested_at=state.pending_since,
                        started_at=cycle,
                        finished_at=cycle + model.makespan,
                    )
                )
                state.pending_since = None

    def _finish_block(
        self, state: _ProcessState, cycle: int, rng: random.Random
    ) -> None:
        index = state.active_block
        assert index is not None
        model = state.blocks[index]
        state.active_block = None
        state.active_profiles = {}
        if model.repeats and rng.random() < 0.5:
            # Loop body with unbounded iteration count: immediately re-arm.
            state.pending_since = cycle + 1
            state.next_block = index

    def _check_cycle(
        self,
        cycle: int,
        usage_total: Dict[str, int],
        usage_by_process: Dict[Tuple[str, str], int],
        trace: Trace,
    ) -> None:
        for type_name, used in usage_total.items():
            limit = self._pools.get(type_name, 0)
            if used > limit:
                trace.violations.append(
                    Violation(
                        cycle=cycle,
                        type_name=type_name,
                        detail=f"total usage {used} exceeds {limit} instances",
                    )
                )
        for (process_name, type_name), used in usage_by_process.items():
            if not self.result.assignment.shares_globally(type_name, process_name):
                continue
            period = self.result.periods.period(type_name)
            count(AUTHORIZATION_CHECKS)
            granted = int(
                self.result.authorization(process_name, type_name)[cycle % period]
            )
            if used > granted:
                trace.violations.append(
                    Violation(
                        cycle=cycle,
                        type_name=type_name,
                        detail=(
                            f"{process_name} used {used} at slot {cycle % period} "
                            f"but is granted {granted}"
                        ),
                    )
                )
