"""Observability: tracing, metrics, events, audit, logging, profiling.

The ``repro.obs`` subsystem is how every other layer reports what it
did without changing what it does:

* :class:`Tracer` / :data:`NULL_TRACER` — hierarchical timed spans and
  a per-iteration event stream, exportable as JSONL; a tracer built
  with ``bus=`` publishes events live (:mod:`repro.obs.tracer`);
* :class:`MetricsRegistry` — typed Counter/Gauge/Histogram instruments
  with associatively mergeable summaries (:mod:`repro.obs.metrics`);
  :class:`Counters` and the ambient :func:`count`/:func:`observe`/
  :func:`set_gauge` hooks feed it from the scheduler's inner loops
  (:mod:`repro.obs.counters`);
* :class:`EventBus` / :class:`JsonlEventWriter` /
  :func:`prometheus_text` — subscribe-able structured event streaming
  and exporters (:mod:`repro.obs.events`);
* :class:`AuditTrail` — opt-in ring-buffered record of every reduction
  decision, exportable via ``repro schedule --audit``
  (:mod:`repro.obs.audit`);
* :func:`get_logger` / :func:`configure_logging` — ``repro.*`` stdlib
  loggers, wired to the CLI's ``-v``/``-q`` (:mod:`repro.obs.logconfig`);
* :func:`render_profile` — the phase/counter/gauge/histogram tables
  printed by ``repro … --profile`` (:mod:`repro.obs.profile`);
* :func:`merge_telemetry` — associative, order-independent aggregation
  of telemetry summaries from independent (possibly concurrent) runs
  (:mod:`repro.obs.merge`).

Everything defaults to off: code instrumented with :data:`NULL_TRACER`
and an inactive counter registry behaves — and costs — the same as
before instrumentation.  See docs/observability.md.
"""

from .._lazy import attach

_EXPORTS = {
    "audit": [
        "AuditTrail",
        "CandidateAudit",
        "DEFAULT_CAPACITY",
        "DecisionAudit",
        "NULL_AUDIT",
        "NullAuditTrail",
    ],
    "counters": [
        "AUDIT_DECISIONS",
        "AUTHORIZATION_CHECKS",
        "CERTIFIER_OFFSET_CLASSES",
        "CERTIFIER_SLOT_CHECKS",
        "Counters",
        "DISTRIBUTION_REBUILDS",
        "FORCE_CACHE_HITS",
        "FORCE_CACHE_MISSES",
        "FORCE_EVALUATIONS",
        "FRAME_REDUCTIONS",
        "KNOWN_COUNTERS",
        "LINT_FINDINGS",
        "LINT_RULES_RUN",
        "MODULO_MAX_TRANSFORMS",
        "SCHEDULER_ITERATIONS",
        "SIMULATION_CYCLES",
        "active_counters",
        "count",
        "observe",
        "set_gauge",
    ],
    "events": [
        "EVENT_CANDIDATE",
        "EVENT_CERTIFY",
        "EVENT_CERTIFY_TYPE",
        "EVENT_COMMIT",
        "EVENT_DEGRADE",
        "EVENT_PLACEMENT",
        "EVENT_PRUNE",
        "EVENT_REDUCTION",
        "EventBus",
        "JsonlEventWriter",
        "prometheus_text",
    ],
    "logconfig": ["configure_logging", "get_logger", "verbosity_level"],
    "merge": ["merge_telemetry"],
    "metrics": [
        "CANDIDATES_SCANNED",
        "CANDIDATE_SECONDS",
        "COMMIT_SECONDS",
        "Counter",
        "FRAMES_REMAINING",
        "Gauge",
        "Histogram",
        "INCUMBENT_AREA",
        "KNOWN_GAUGES",
        "KNOWN_HISTOGRAMS",
        "MetricsRegistry",
        "REDUCTION_SCORE",
        "SELECT_SECONDS",
        "merge_gauge_summary",
        "merge_histogram_summary",
    ],
    "profile": [
        "render_counter_table",
        "render_gauge_table",
        "render_histogram_table",
        "render_phase_table",
        "render_profile",
    ],
    "tracer": [
        "NULL_TRACER",
        "NullTracer",
        "SpanRecord",
        "TraceEvent",
        "Tracer",
        "as_tracer",
    ],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
