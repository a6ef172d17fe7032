"""Preflight validation, run budgets, and fuzzing for the repro library.

Three robustness facilities live here (see docs/robustness.md):

* :mod:`~repro.validation.preflight` — ``validate_problem()`` and
  friends: structured :class:`Diagnostic` findings with stable codes,
  surfaced by ``repro check`` and run before ``schedule``/``sweep``;
* :mod:`~repro.validation.budget` — :class:`RunBudget` watchdogs that
  bound scheduler work and trigger graceful list-scheduling degradation;
* :mod:`~repro.validation.fuzz` — the mutation fuzz harness backing
  ``tests/fuzz`` and ``benchmarks/fuzz_runner.py``.
"""

from .._lazy import attach

_EXPORTS = {
    "budget": ["BudgetTracker", "RunBudget"],
    "diagnostics": [
        "CODES",
        "Diagnostic",
        "DiagnosticReport",
        "SEVERITY_ERROR",
        "SEVERITY_INFO",
        "SEVERITY_WARNING",
    ],
    "fuzz": [
        "FuzzOutcome",
        "OUTCOME_CRASHED",
        "OUTCOME_DIVERGED",
        "OUTCOME_REJECTED",
        "OUTCOME_SCHEDULED",
        "differential_text",
        "exercise_text",
        "mutate_text",
    ],
    "preflight": [
        "validate_document",
        "validate_path",
        "validate_problem",
        "validate_text",
    ],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
