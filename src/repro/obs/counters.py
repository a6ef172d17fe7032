"""Named event counters with an ambient activation hook.

Since the metrics registry landed (:mod:`repro.obs.metrics`), a
:class:`Counters` object is a *compatibility shim* over a
:class:`~repro.obs.metrics.MetricsRegistry`: the historical API
(``inc``/``get``/``as_dict``/``merge``/``activate``) is preserved
verbatim, while the registry underneath also carries the typed gauge
and histogram instruments.  Code that held a ``Counters`` keeps
working; code that wants the full registry reads ``counters.registry``.

Counts are incremented either directly
(``counters.inc("force_evaluations")``) or — from leaf modules that have
no handle on the current run — through the module-level :func:`count`
hook, which forwards to whichever registry is *active* in the enclosing
``with counters.activate():`` block.  :func:`observe` and
:func:`set_gauge` are the equivalent ambient hooks for histograms and
gauges.

When no registry is active, each hook is a single global load plus a
``None`` check: cheap enough for the scheduler's innermost loops, so the
default (uninstrumented) path stays effectively free.

The activation hook is a plain module global, not a context variable:
one scheduling run owns the interpreter while it executes (the solvers
are single-threaded), and a global keeps the hot-path check as small as
possible.  Nested activations restore the previous registry on exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from .metrics import MetricsRegistry

#: Canonical counter names incremented by the instrumented modules.
#: Other names are allowed — the registry is open — but these are the
#: ones the scheduler, binding, and simulation layers emit.
FORCE_EVALUATIONS = "force_evaluations"
MODULO_MAX_TRANSFORMS = "modulo_max_transforms"
FRAME_REDUCTIONS = "frame_reductions"
DISTRIBUTION_REBUILDS = "distribution_rebuilds"
AUTHORIZATION_CHECKS = "authorization_checks"
SCHEDULER_ITERATIONS = "scheduler_iterations"
SIMULATION_CYCLES = "simulation_cycles"
FORCE_CACHE_HITS = "force_cache_hits"
FORCE_CACHE_MISSES = "force_cache_misses"
CERTIFIER_OFFSET_CLASSES = "certifier_offset_classes"
CERTIFIER_SLOT_CHECKS = "certifier_slot_checks"
ABSINT_TRANSFERS = "absint_transfers"
ABSINT_WIDENINGS = "absint_widenings"
ABSINT_FASTPATH_PROOFS = "absint_fastpath_proofs"
LINT_RULES_RUN = "lint_rules_run"
LINT_FINDINGS = "lint_findings"
AUDIT_DECISIONS = "audit_decisions"
SELECTION_RESCORED = "selection_rescored"
SELECTION_SKIPPED = "selection_skipped"

KNOWN_COUNTERS = (
    FORCE_EVALUATIONS,
    MODULO_MAX_TRANSFORMS,
    FRAME_REDUCTIONS,
    DISTRIBUTION_REBUILDS,
    AUTHORIZATION_CHECKS,
    SCHEDULER_ITERATIONS,
    SIMULATION_CYCLES,
    FORCE_CACHE_HITS,
    FORCE_CACHE_MISSES,
    CERTIFIER_OFFSET_CLASSES,
    CERTIFIER_SLOT_CHECKS,
    ABSINT_TRANSFERS,
    ABSINT_WIDENINGS,
    ABSINT_FASTPATH_PROOFS,
    LINT_RULES_RUN,
    LINT_FINDINGS,
    AUDIT_DECISIONS,
    SELECTION_RESCORED,
    SELECTION_SKIPPED,
)


class Counters:
    """The historical counter API, now a shim over a metrics registry."""

    __slots__ = ("registry",)

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment one counter (created at 0 on first use)."""
        self.registry.inc(name, amount)

    def get(self, name: str) -> int:
        """Current value of a counter; 0 if it was never incremented."""
        return self.registry.counter_value(name)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters, sorted by name."""
        return self.registry.counters_dict()

    def reset(self) -> None:
        """Zero every instrument of the underlying registry."""
        self.registry.reset()

    def merge(self, other: "Counters") -> None:
        """Add another registry's counts (and other instruments) into this one."""
        self.registry.merge(other.registry)

    def activate(self) -> "Iterator[Counters]":
        """Install this registry as the ambient hook target."""
        return _activate(self)

    def __bool__(self) -> bool:
        return any(self.as_dict().values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"Counters({inner})"


_active: Optional[Counters] = None


@contextmanager
def _activate(counters: Counters) -> Iterator[Counters]:
    global _active
    previous = _active
    _active = counters
    try:
        yield counters
    finally:
        _active = previous


def active_counters() -> Optional[Counters]:
    """The registry currently receiving ambient counts, if any."""
    return _active


def count(name: str, amount: int = 1) -> None:
    """Increment ``name`` on the active registry; no-op when none is."""
    if _active is not None:
        _active.registry.inc(name, amount)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the active registry; else no-op."""
    if _active is not None:
        _active.registry.observe(name, value)


def observe_many(name: str, value: float, n: int) -> None:
    """Record ``n`` equal observations on the active registry; else no-op.

    The batched force kernels fold a whole (op × slot) reduction into
    one aggregate record — e.g. the mean per-evaluation latency times
    the batch width — so the uninstrumented hot path still pays only a
    single global load and ``None`` check per batch.
    """
    if _active is not None:
        _active.registry.observe_many(name, value, n)


def set_gauge(name: str, value: float) -> None:
    """Sample a gauge on the active registry; no-op when none is."""
    if _active is not None:
        _active.registry.set_gauge(name, value)
