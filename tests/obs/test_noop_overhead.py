"""Tier-1 guard on the zero-cost-when-disabled contract (experiment O1).

``benchmarks/bench_obs_overhead.py`` measures the no-op instrumentation
overhead but only runs in the bench suite; this test pins the parts of
that contract that must never regress silently:

* **Parity** — a run through the default no-op tracer/audit makes the
  identical schedule (iterations, starts, area) as a fully instrumented
  run: instrumentation observes, never steers.
* **Allocation-freedom** — the no-op run records no events, spans,
  counters, gauges, histograms, or audit decisions anywhere.
* **Pinned call bound** — one disabled instrumentation point costs at
  most a few microseconds (bound pinned at 20 us/call, ~100x the
  expected cost, so only a structural regression — e.g. allocating an
  event object on the disabled path — can trip it on a noisy CI box).
"""

import time

from repro.core.scheduler import ModuloSystemScheduler
from repro.obs import NULL_AUDIT, NULL_TRACER, AuditTrail, Tracer
from repro.obs.counters import active_counters, count, observe, set_gauge
from repro.scheduling.forces import area_weights
from repro.workloads import paper_assignment, paper_periods, paper_system

#: Generous per-call ceiling for a disabled instrumentation point.
PINNED_BOUND_SECONDS = 20e-6
CALLS = 20_000


def _run(tracer=None, audit=None):
    system, library = paper_system()
    scheduler = ModuloSystemScheduler(
        library, weights=area_weights(library), tracer=tracer, audit=audit
    )
    return scheduler.schedule(
        system, paper_assignment(library), paper_periods()
    )


class TestNoopParity:
    def test_disabled_instrumentation_never_steers(self):
        baseline = _run()
        instrumented = _run(tracer=Tracer(), audit=AuditTrail())
        assert instrumented.iterations == baseline.iterations
        assert instrumented.total_area() == baseline.total_area()
        assert instrumented.instance_counts() == baseline.instance_counts()
        assert {
            key: sched.starts
            for key, sched in instrumented.block_schedules.items()
        } == {
            key: sched.starts
            for key, sched in baseline.block_schedules.items()
        }

    def test_noop_run_allocates_no_telemetry(self):
        result = _run()
        telemetry = result.telemetry
        assert telemetry["counters"] == {}
        assert telemetry["events"] == 0
        assert "gauges" not in telemetry
        assert "histograms" not in telemetry
        assert "audit" not in telemetry
        assert len(NULL_TRACER.events) == 0
        assert len(NULL_AUDIT) == 0


class TestPinnedBound:
    def _per_call(self, fn) -> float:
        # One warmup pass, then the best of three timed passes — the
        # minimum discards scheduler-induced stalls, which is the right
        # statistic for an upper-bound assertion.
        fn()
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best / CALLS

    def test_null_tracer_calls_stay_under_pinned_bound(self):
        def burst():
            for _ in range(CALLS):
                NULL_TRACER.event("reduction", op="a1")
                NULL_TRACER.count("force_evaluations")
                NULL_TRACER.observe("select_seconds", 0.001)
                NULL_TRACER.set_gauge("frames_remaining", 3)

        # 4 instrumentation points per loop iteration.
        assert self._per_call(burst) / 4 < PINNED_BOUND_SECONDS

    def test_ambient_hooks_stay_under_pinned_bound_when_inactive(self):
        assert active_counters() is None

        def burst():
            for _ in range(CALLS):
                count("force_evaluations")
                observe("candidates_scanned", 5)
                set_gauge("frames_remaining", 3)

        assert self._per_call(burst) / 3 < PINNED_BOUND_SECONDS

    def test_null_audit_record_stays_under_pinned_bound(self):
        def burst():
            for _ in range(CALLS):
                NULL_AUDIT.record(None)

        assert self._per_call(burst) < PINNED_BOUND_SECONDS
