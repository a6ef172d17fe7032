"""Scheduling substrate: time frames, distributions, FDS, IFDS, list scheduling."""

from .._lazy import attach

_EXPORTS = {
    "distribution": ["BlockDistributions", "occupancy_row"],
    "fdls": ["ForceDirectedListScheduler"],
    "fds": ["ForceDirectedScheduler"],
    "forces": [
        "DEFAULT_LOOKAHEAD",
        "area_weights",
        "force_from_deltas",
        "hooke_force",
        "placement_force",
        "uniform_weights",
    ],
    "ifds": ["ImprovedForceDirectedScheduler", "ReductionChoice", "evaluate_reduction"],
    "kernels": ["PlacementKernel", "row_dots", "row_self_dots"],
    "list_scheduling": ["ListScheduler"],
    "schedule": ["BlockSchedule"],
    "state": ["BlockState", "ReductionEffect"],
    "timeframes": ["FrameTable", "alap_schedule", "asap_schedule"],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
