"""Scheduling substrate: time frames, distributions, FDS, IFDS, list scheduling."""

from .distribution import BlockDistributions, occupancy_row
from .fdls import ForceDirectedListScheduler
from .fds import ForceDirectedScheduler
from .forces import (
    DEFAULT_LOOKAHEAD,
    area_weights,
    force_from_deltas,
    hooke_force,
    placement_force,
    uniform_weights,
)
from .ifds import ImprovedForceDirectedScheduler, ReductionChoice, evaluate_reduction
from .kernels import PlacementKernel, row_dots, row_self_dots
from .list_scheduling import ListScheduler
from .schedule import BlockSchedule
from .state import BlockState, ReductionEffect
from .timeframes import FrameTable, alap_schedule, asap_schedule

__all__ = [
    "BlockDistributions",
    "BlockSchedule",
    "BlockState",
    "DEFAULT_LOOKAHEAD",
    "ForceDirectedListScheduler",
    "ForceDirectedScheduler",
    "FrameTable",
    "ImprovedForceDirectedScheduler",
    "ListScheduler",
    "PlacementKernel",
    "ReductionChoice",
    "ReductionEffect",
    "alap_schedule",
    "area_weights",
    "asap_schedule",
    "evaluate_reduction",
    "force_from_deltas",
    "hooke_force",
    "occupancy_row",
    "placement_force",
    "row_dots",
    "row_self_dots",
    "uniform_weights",
]
