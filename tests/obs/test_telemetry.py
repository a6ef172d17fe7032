"""End-to-end telemetry: scheduler counters, phases, events, no-op parity.

The fixed workloads here are small enough that the counter values can be
cross-checked exactly against the per-iteration event stream:

* ``frame_reductions`` — one per committed IFDS reduction, so it equals
  the reported iteration count on workloads without propagation;
* ``force_evaluations`` — two placement forces per mobile candidate per
  iteration; with a single resource type and no precedence edges each
  placement force is exactly one Hooke evaluation, so the counter equals
  ``sum(2 * candidates)`` over the reduction events;
* ``modulo_max_transforms`` — zero for all-local scheduling, positive as
  soon as a global type exists.
"""

import json

import pytest

from repro import (
    Block,
    DataFlowGraph,
    ModuloSystemScheduler,
    OpKind,
    Process,
    ResourceAssignment,
    SystemSpec,
    Tracer,
    default_library,
    loads_problem,
)
from repro.analysis.compare import compare_scopes
from repro.obs import EventBus
from repro.scheduling.forces import area_weights
from repro.workloads import paper_assignment, paper_periods, paper_system

GLOBAL_SYS = """\
system demo
process p1
block p1 main deadline=8
op p1 main a1 add
op p1 main m1 mul
edge p1 main a1 m1
process p2
block p2 main deadline=8
op p2 main m1 mul
global multiplier p1 p2
period multiplier 4
"""


def independent_adds_system(n_ops: int = 4, deadline: int = 6) -> SystemSpec:
    graph = DataFlowGraph(name="par")
    for i in range(n_ops):
        graph.add(f"a{i}", OpKind.ADD)
    system = SystemSpec(name="par-sys")
    process = Process(name="p")
    process.add_block(Block(name="main", graph=graph, deadline=deadline))
    system.add_process(process)
    return system


class TestExactCounters:
    def test_local_counters_exact_on_independent_adds(self):
        library = default_library()
        system = independent_adds_system(n_ops=4, deadline=6)
        tracer = Tracer()
        scheduler = ModuloSystemScheduler(library, tracer=tracer)
        result = scheduler.schedule(
            system, ResourceAssignment.all_local(library)
        )
        counters = result.telemetry["counters"]

        # Every operation starts with frame [0, 5]; each of the 4 frames
        # shrinks one step per iteration until width 1: 4 * 5 iterations.
        assert result.iterations == 4 * 5
        assert counters["frame_reductions"] == result.iterations
        assert counters["scheduler_iterations"] == result.iterations

        # Cross-check the force-evaluation count against the event stream:
        # one type, no edges => one Hooke evaluation per placement force,
        # two placement forces per candidate per iteration.
        events = tracer.events_named("reduction")
        assert len(events) == result.iterations
        expected_forces = sum(2 * e.attrs["candidates"] for e in events)
        assert counters["force_evaluations"] == expected_forces

        # One committed reduction touches exactly one distribution (all
        # operations share the adder type, no propagation).
        assert counters["distribution_rebuilds"] == result.iterations

        # No global types anywhere: the modulo machinery must be silent.
        assert counters.get("modulo_max_transforms", 0) == 0

    def test_global_run_counts_modulo_transforms(self):
        problem = loads_problem(GLOBAL_SYS)
        tracer = Tracer()
        result = problem.schedule(tracer=tracer)
        counters = result.telemetry["counters"]
        assert counters["modulo_max_transforms"] > 0
        assert counters["frame_reductions"] >= result.iterations
        assert result.telemetry["counters"] == tracer.counters.as_dict()

    def test_counters_deterministic_across_runs(self):
        problem = loads_problem(GLOBAL_SYS)
        first = problem.schedule(tracer=Tracer()).telemetry["counters"]
        second = problem.schedule(tracer=Tracer()).telemetry["counters"]
        assert first == second


class TestForceEvalHistogram:
    def test_paper_run_records_one_observation_per_frame_end(self):
        """The coupled engine records one ``force_eval_seconds``
        observation per frame end whose rows it builds, which is what
        ``force_cache_misses`` counts; the paper system has no guarded
        operations, so nothing else records the histogram."""
        system, library = paper_system()
        tracer = Tracer()
        ModuloSystemScheduler(
            library, weights=area_weights(library), tracer=tracer
        ).schedule(system, paper_assignment(library), paper_periods())
        summary = tracer.summary()
        misses = summary["counters"]["force_cache_misses"]
        assert misses > 0
        histogram = summary["histograms"]["force_eval_seconds"]
        assert histogram["count"] == misses


class TestSharedTracer:
    """Both scopes of a comparison run on one tracer: the tracer keeps
    command totals, each result reports its own run."""

    @pytest.fixture(scope="class")
    def shared(self):
        system, library = paper_system()
        tracer = Tracer()
        comparison = compare_scopes(
            system,
            library,
            paper_assignment(library),
            paper_periods(),
            weights=area_weights(library),
            tracer=tracer,
        )
        return tracer, (comparison.global_result, comparison.local_result)

    def test_compare_scopes_reports_each_runs_own_counters(self, shared):
        tracer, results = shared
        for result in results:
            counters = result.telemetry["counters"]
            assert counters["scheduler_iterations"] == result.iterations
            assert counters["frame_reductions"] == result.iterations
        totals = tracer.counters.as_dict()
        assert totals["scheduler_iterations"] == sum(r.iterations for r in results)
        for name, total in totals.items():
            assert total == sum(
                r.telemetry["counters"].get(name, 0) for r in results
            ), name

    def test_compare_scopes_reports_each_runs_own_histograms_and_gauges(self, shared):
        """One select per iteration plus the final empty scan, one frames
        sample per commit, and the runs add up to the tracer's totals."""
        tracer, results = shared
        for result in results:
            telemetry = result.telemetry
            select = telemetry["histograms"]["select_seconds"]
            assert select["count"] == result.iterations + 1
            assert sum(select["buckets"].values()) == select["count"]
            assert select["min"] <= select["p50"] <= select["p95"] <= select["max"]
            frames = telemetry["gauges"]["frames_remaining"]
            assert frames["samples"] == result.iterations
            assert frames["value"] == 0
        for name, total in tracer.metrics.histograms_dict().items():
            parts = [r.telemetry["histograms"][name] for r in results]
            assert total["count"] == sum(part["count"] for part in parts), name
            assert total["sum"] == pytest.approx(sum(part["sum"] for part in parts))
            assert total["min"] == min(part["min"] for part in parts), name
            assert total["max"] == max(part["max"] for part in parts), name
        gauge = tracer.metrics.gauges_dict()["frames_remaining"]
        assert gauge["samples"] == sum(r.iterations for r in results)


class _Capturing(ModuloSystemScheduler):
    """Remembers the entries of its run, to recount frames by brute force."""

    def _selector(self, entries, coupling):
        self.entries = entries
        return super()._selector(entries, coupling)


class TestFramesRemaining:
    def test_gauge_and_events_match_a_recount_on_the_paper_system(self):
        """The running ``frames_remaining`` total equals the sum of every
        block's unfixed count after each commit, and the sequence is the
        one the full recount produced (pinned: 1,150 reductions summing
        to 85,734, gauge 0/0/124)."""
        system, library = paper_system()
        bus = EventBus()
        scheduler = _Capturing(
            library, weights=area_weights(library), tracer=Tracer(bus=bus)
        )
        recounts = []

        @bus.subscribe
        def recount(event):
            if event.name == "reduction":
                recounts.append(
                    sum(e.state.frames.unfixed_count() for e in scheduler.entries)
                )

        scheduler.schedule(system, paper_assignment(library), paper_periods())
        tracer = scheduler.tracer
        remaining = [
            event.attrs["frames_remaining"]
            for event in tracer.events_named("reduction")
        ]
        assert remaining == recounts
        assert len(remaining) == 1150
        assert sum(remaining) == 85734
        assert tracer.metrics.gauges_dict()["frames_remaining"] == {
            "value": 0,
            "min": 0,
            "max": 124,
            "samples": 1150,
        }


class TestNoOpParity:
    """The acceptance guard: no tracer => same decisions, no telemetry."""

    def test_iteration_counts_identical_with_and_without_tracer(self):
        problem = loads_problem(GLOBAL_SYS)
        plain = problem.schedule()
        traced = problem.schedule(tracer=Tracer())
        assert plain.iterations == traced.iterations
        assert plain.instance_counts() == traced.instance_counts()
        schedules = {
            key: sched.starts for key, sched in plain.block_schedules.items()
        }
        traced_schedules = {
            key: sched.starts for key, sched in traced.block_schedules.items()
        }
        assert schedules == traced_schedules

    def test_noop_run_has_empty_counters_but_phase_times(self):
        problem = loads_problem(GLOBAL_SYS)
        result = problem.schedule()
        assert result.telemetry["counters"] == {}
        assert result.telemetry["events"] == 0
        phases = result.telemetry["phase_times"]
        assert set(phases) == {"setup", "reduction_loop", "finalization"}


class TestPhaseTimes:
    def test_phases_sum_to_wall_time(self):
        problem = loads_problem(GLOBAL_SYS)
        result = problem.schedule()
        phases = result.telemetry["phase_times"]
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) == pytest.approx(result.wall_time)
        assert result.telemetry["wall_time"] == result.wall_time
        assert result.telemetry["iterations"] == result.iterations


class TestTraceStream:
    def test_one_event_per_iteration_and_jsonl_round_trip(self, tmp_path):
        problem = loads_problem(GLOBAL_SYS)
        tracer = Tracer()
        result = problem.schedule(tracer=tracer)
        events = tracer.events_named("reduction")
        assert len(events) == result.iterations
        for event in events:
            assert set(event.attrs) >= {
                "iteration",
                "process",
                "block",
                "op",
                "side",
                "score",
                "candidates",
                "frames_remaining",
            }
            assert event.attrs["side"] in ("low", "high")
        # Mobility can only shrink.
        remaining = [event.attrs["frames_remaining"] for event in events]
        assert remaining[-1] == 0
        assert all(a >= b for a, b in zip(remaining, remaining[1:]))

        path = tmp_path / "trace.jsonl"
        written = tracer.write_jsonl(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert written == len(lines) >= result.iterations
        names = set()
        for line in lines:
            record = json.loads(line)
            names.add(record["name"])
        assert {"schedule", "setup", "reduction_loop", "finalization",
                "reduction"} <= names
