"""Core contribution: time-constrained modulo scheduling with global sharing."""

from .._lazy import attach
# Bound eagerly: these exports share their submodule's name (see repro._lazy).
from .auto_assignment import auto_assignment as auto_assignment
from .verify import verify as verify

_EXPORTS = {
    "auto_assignment": ["ScopeDecision", "auto_assignment", "decide_scopes"],
    "balancing": ["balance", "process_max", "system_sum"],
    "exhaustive": ["ExhaustiveReport", "exhaustive_interleaving_check"],
    "merging": ["merge_system", "schedule_merged"],
    "modulo": ["fold", "modulo_delta", "modulo_max", "modulo_max_int", "slot_steps"],
    "offsets": ["OffsetOutcome", "optimize_offsets"],
    "periods": [
        "PeriodAssignment",
        "candidate_periods",
        "divisors",
        "enumerate_period_assignments",
        "estimate_enumeration_size",
        "is_harmonic",
        "lcm_all",
        "suggest_periods",
    ],
    "rc_modulo": ["RCModuloResult", "RCModuloScheduler"],
    "result": ["SystemSchedule"],
    "scheduler": ["ModuloSystemScheduler"],
    "verify": ["VerificationReport", "verify", "verify_system_schedule"],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
