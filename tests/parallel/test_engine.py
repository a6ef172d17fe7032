"""Tests for the parallel exploration engine (docs/parallel.md).

Covers the tentpole guarantees: ``workers=1`` reproduces the plain
serial sweep exactly, ``workers>1`` reproduces its best result, faults
and timeouts become failed-candidate records without losing or
duplicating candidates, and per-worker telemetry merges into one
profile-compatible summary.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.compare import compare_scopes
from repro.cli import main
from repro.core.scheduler import ModuloSystemScheduler
from repro.obs import Tracer
from repro.parallel import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_PRUNED,
    ExplorationEngine,
    ExplorationError,
    RetryPolicy,
    SweepInterrupted,
    SweepJob,
    SweepJournal,
    run_job,
)
from repro.scheduling.forces import area_weights


def plain_sweep(problem, candidates):
    """The pre-engine serial sweep: one scheduler, candidates in order."""
    scheduler = ModuloSystemScheduler(
        problem.library, weights=area_weights(problem.library)
    )
    results = []
    for periods in candidates:
        result = scheduler.schedule(problem.system, problem.assignment, periods)
        results.append((periods.as_dict, result.total_area()))
    return results


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize("workers", [1, 2])
class TestLoopContract:
    """One sweep loop serves every worker count: its rules, per count."""

    #: ``(evaluated, pruned)`` of the pruned small sweep.  Two workers
    #: dispatch two equal-bound candidates before either reports.
    PRUNED = {1: (1, 15), 2: (2, 14)}

    def test_pruned_counts(self, workers, small_problem, small_candidates):
        outcome = ExplorationEngine(small_problem, workers=workers).sweep(
            small_candidates
        )
        assert (outcome.evaluated, outcome.pruned) == self.PRUNED[workers]
        assert outcome.best_area == 5.0

    def test_retry_then_fail(self, workers, small_problem, small_candidates):
        target = small_candidates[-1].as_dict
        outcome = ExplorationEngine(
            small_problem,
            workers=workers,
            prune=False,
            fault_for=lambda periods: "raise:boom" if periods == target else None,
        ).sweep(small_candidates)
        failed = [r for r in outcome.results if r.status == STATUS_FAILED]
        assert [(r.periods, r.attempts) for r in failed] == [(target, 2)]
        assert "boom" in failed[0].error
        assert outcome.evaluated == len(small_candidates) - 1
        assert [r.order for r in outcome.results] == list(
            range(len(small_candidates))
        )

    def test_stop_before_the_first_candidate(
        self, workers, tmp_path, small_problem, small_candidates
    ):
        path = tmp_path / "ck.jsonl"
        seen = []
        engine = ExplorationEngine(
            small_problem,
            workers=workers,
            checkpoint=path,
            stop_when=lambda: True,
        )
        with pytest.raises(SweepInterrupted):
            engine.sweep(small_candidates, on_result=seen.append)
        assert seen == []
        assert SweepJournal(path).load() == {}

    def test_late_record_is_dropped(
        self, workers, tmp_path, small_problem, small_candidates
    ):
        """``stop_when`` turns true while the candidate evaluates: its
        record is neither journaled nor surfaced."""
        path = tmp_path / "ck.jsonl"
        polls = []

        def stop_when():
            polls.append(time.monotonic())
            return polls[-1] - polls[0] > 0.25

        seen = []
        engine = ExplorationEngine(
            small_problem,
            workers=workers,
            prune=False,
            checkpoint=path,
            fault_for=lambda periods: "sleep:0.5",
            stop_when=stop_when,
        )
        with pytest.raises(SweepInterrupted):
            engine.sweep(small_candidates[:1], on_result=seen.append)
        assert seen == []
        assert SweepJournal(path).load() == {}


@pytest.mark.parametrize(
    "name, workers, sweep_line, best_line",
    [
        (
            "paper_system",
            1,
            "sweep: 7 evaluated, 66 pruned, 0 failed (workers: 1)",
            "best: {'adder': 15, 'multiplier': 15, 'subtracter': 3} (area 13)",
        ),
        (
            "paper_system",
            2,
            "sweep: 7 evaluated, 66 pruned, 0 failed (workers: 2)",
            "best: {'adder': 15, 'multiplier': 15, 'subtracter': 3} (area 13)",
        ),
        (
            "diffeq_pair",
            1,
            "sweep: 1 evaluated, 45 pruned, 0 failed (workers: 1)",
            "best: {'multiplier': 15, 'adder': 3, 'subtracter': 3} (area 6)",
        ),
        (
            "diffeq_pair",
            2,
            "sweep: 2 evaluated, 44 pruned, 0 failed (workers: 2)",
            "best: {'multiplier': 15, 'adder': 3, 'subtracter': 3} (area 6)",
        ),
    ],
)
def test_sweep_command_lines(name, workers, sweep_line, best_line, capsys):
    """``repro sweep examples/*.sys``: the counts and best of each
    worker count."""
    argv = ["sweep", str(EXAMPLES / f"{name}.sys"), "--workers", str(workers)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [sweep_line, best_line]


class TestSerialPath:
    def test_workers1_matches_plain_sweep(self, small_problem, small_candidates):
        expected = plain_sweep(small_problem, small_candidates)
        engine = ExplorationEngine(small_problem, workers=1, prune=False)
        outcome = engine.sweep(small_candidates)
        assert [
            (record.periods, record.area) for record in outcome.results
        ] == expected
        best_area = min(area for _, area in expected)
        assert outcome.best_area == best_area

    def test_best_tiebreak_is_lexicographic(self, small_problem, small_candidates):
        engine = ExplorationEngine(small_problem, workers=1, prune=False)
        outcome = engine.sweep(small_candidates)
        ties = [
            record
            for record in outcome.results
            if record.status == STATUS_OK and record.area == outcome.best_area
        ]
        assert outcome.best.lexkey == min(record.lexkey for record in ties)

    def test_pruning_preserves_best_area(self, small_problem, small_candidates):
        exhaustive = ExplorationEngine(
            small_problem, workers=1, prune=False
        ).sweep(small_candidates)
        pruned = ExplorationEngine(small_problem, workers=1, prune=True).sweep(
            small_candidates
        )
        assert pruned.best_area == exhaustive.best_area
        assert pruned.evaluated + pruned.pruned == len(small_candidates)
        # Every candidate appears exactly once, in the original order.
        assert [r.order for r in pruned.results] == list(
            range(len(small_candidates))
        )

    def test_on_result_called_once_per_candidate(
        self, small_problem, small_candidates
    ):
        seen = []
        engine = ExplorationEngine(small_problem, workers=1)
        engine.sweep(small_candidates, on_result=seen.append)
        assert sorted(record.order for record in seen) == list(
            range(len(small_candidates))
        )

    def test_workers_must_be_positive(self, small_problem):
        with pytest.raises(ExplorationError):
            ExplorationEngine(small_problem, workers=0)


class TestParallelPath:
    def test_parallel_matches_serial(self, small_problem, small_candidates):
        serial = ExplorationEngine(
            small_problem, workers=1, prune=False
        ).sweep(small_candidates)
        parallel = ExplorationEngine(
            small_problem, workers=2, prune=False
        ).sweep(small_candidates)
        assert parallel.best_area == serial.best_area
        assert parallel.best_periods == serial.best_periods
        assert [
            (record.periods, record.area) for record in parallel.results
        ] == [(record.periods, record.area) for record in serial.results]

    def test_parallel_telemetry_merges_workers(
        self, small_problem, small_candidates
    ):
        tracer = Tracer()
        engine = ExplorationEngine(
            small_problem, workers=2, prune=False, tracer=tracer
        )
        outcome = engine.sweep(small_candidates)
        telemetry = outcome.telemetry
        assert telemetry["workers"] == 2
        assert telemetry["candidates_total"] == len(small_candidates)
        assert telemetry["candidates_evaluated"] == len(small_candidates)
        assert telemetry["counters"]["force_evaluations"] > 0
        assert telemetry["runs"] == len(small_candidates)
        assert telemetry["worker_summaries"]
        assert sum(
            summary["jobs"] for summary in telemetry["worker_summaries"].values()
        ) == len(small_candidates)
        # Merged worker counters land in the parent tracer too.
        assert tracer.counters.as_dict()["force_evaluations"] > 0

    def test_untraced_workers_ship_no_instruments(
        self, small_problem, small_candidates
    ):
        outcome = ExplorationEngine(
            small_problem, workers=2, prune=False
        ).sweep(small_candidates)
        evaluated = [r for r in outcome.results if r.status == STATUS_OK]
        assert len(evaluated) == len(small_candidates)
        for record in evaluated:
            assert record.telemetry["counters"] == {}
            assert "histograms" not in record.telemetry
        assert outcome.telemetry["counters"] == {}
        assert "histograms" not in outcome.telemetry

    def test_chunked_dispatch_same_results(
        self, small_problem, small_candidates
    ):
        serial = ExplorationEngine(
            small_problem, workers=1, prune=False
        ).sweep(small_candidates)
        chunked = ExplorationEngine(
            small_problem, workers=2, prune=False, chunk_size=3
        ).sweep(small_candidates)
        assert chunked.best_area == serial.best_area
        assert chunked.evaluated == len(small_candidates)


class TestFaultHandling:
    """Satellite: worker faults become failed records, nothing is lost."""

    def _fault_for(self, target, directive):
        def fault(periods):
            return directive if periods == target else None

        return fault

    def test_raising_candidate_serial(self, small_problem, small_candidates):
        target = small_candidates[0].as_dict
        engine = ExplorationEngine(
            small_problem,
            workers=1,
            prune=False,
            fault_for=self._fault_for(target, "raise:boom"),
        )
        outcome = engine.sweep(small_candidates)
        failed = [r for r in outcome.results if r.status == STATUS_FAILED]
        assert len(failed) == 1
        assert failed[0].periods == target
        assert "boom" in failed[0].error
        assert failed[0].attempts == 2  # one retry before giving up
        assert outcome.evaluated == len(small_candidates) - 1
        assert [r.order for r in outcome.results] == list(
            range(len(small_candidates))
        )

    def test_raising_candidate_parallel(self, small_problem, small_candidates):
        target = small_candidates[-1].as_dict
        engine = ExplorationEngine(
            small_problem,
            workers=2,
            prune=False,
            fault_for=self._fault_for(target, "raise:boom"),
        )
        outcome = engine.sweep(small_candidates)
        failed = [r for r in outcome.results if r.status == STATUS_FAILED]
        assert len(failed) == 1
        assert failed[0].periods == target
        assert failed[0].attempts == 2
        # No candidate lost or duplicated despite the retry.
        assert [r.order for r in outcome.results] == list(
            range(len(small_candidates))
        )
        assert outcome.best_area is not None

    def test_timeout_candidate_serial(self, small_problem, small_candidates):
        target = small_candidates[0].as_dict
        engine = ExplorationEngine(
            small_problem,
            workers=1,
            prune=False,
            timeout=0.2,
            fault_for=self._fault_for(target, "sleep:5"),
        )
        outcome = engine.sweep(small_candidates)
        failed = [r for r in outcome.results if r.status == STATUS_FAILED]
        assert len(failed) == 1
        assert "timed out" in failed[0].error
        assert failed[0].attempts == 2
        assert outcome.evaluated == len(small_candidates) - 1

    def test_timeout_candidate_worker(self, small_problem):
        """The per-job deadline also fires inside a worker process."""
        from repro.api import dumps_problem

        job = SweepJob(
            job_id=0,
            problem_text=dumps_problem(small_problem),
            periods=tuple(small_problem.periods.as_dict.items()),
            timeout=0.2,
            fault="sleep:5",
        )
        result = run_job(job)
        assert not result.ok
        assert "timed out" in result.error


class TestCompare:
    def test_engine_compare_matches_compare_scopes(self, small_problem):
        comparison = compare_scopes(
            small_problem.system,
            small_problem.library,
            small_problem.assignment,
            small_problem.periods,
            weights=area_weights(small_problem.library),
        )
        outcome = ExplorationEngine(small_problem, workers=1).compare()
        assert outcome.global_result.area == comparison.global_area
        assert outcome.local_result.area == comparison.local_area
        assert (
            outcome.global_result.instance_counts
            == comparison.global_result.instance_counts()
        )

    def test_engine_compare_parallel(self, small_problem):
        serial = ExplorationEngine(small_problem, workers=1).compare()
        parallel = ExplorationEngine(small_problem, workers=2).compare()
        assert parallel.global_result.area == serial.global_result.area
        assert parallel.local_result.area == serial.local_result.area

    def test_compare_failure_raises(self, small_problem):
        engine = ExplorationEngine(
            small_problem,
            workers=1,
            retry_policy=RetryPolicy(max_attempts=1),
            fault_for=lambda periods: "raise:broken" if periods else None,
        )
        with pytest.raises(ExplorationError):
            engine.compare()


class TestJobProtocol:
    def test_job_roundtrip_matches_inline(self, small_problem, small_candidates):
        from repro.api import dumps_problem

        periods = small_candidates[0]
        scheduler = ModuloSystemScheduler(
            small_problem.library,
            weights=area_weights(small_problem.library),
        )
        direct = scheduler.schedule(
            small_problem.system, small_problem.assignment, periods
        )
        job = SweepJob(
            job_id=7,
            problem_text=dumps_problem(small_problem),
            periods=tuple(periods.as_dict.items()),
        )
        result = run_job(job)
        assert result.ok
        assert result.area == direct.total_area()
        assert result.iterations == direct.iterations
        assert result.instance_counts == direct.instance_counts()

    def test_job_traces_only_when_asked(self, small_problem, small_candidates):
        from repro.api import dumps_problem

        job = SweepJob(
            job_id=0,
            problem_text=dumps_problem(small_problem),
            periods=tuple(small_candidates[0].as_dict.items()),
        )
        untraced = run_job(job)
        traced = run_job(replace(job, traced=True))
        assert untraced.ok and traced.ok
        assert untraced.area == traced.area
        assert untraced.telemetry["counters"] == {}
        assert "histograms" not in untraced.telemetry
        assert traced.telemetry["counters"]["force_evaluations"] > 0
        assert traced.telemetry["histograms"]["candidate_seconds"]["count"] == 1

    def test_pruned_statuses_have_no_area(self, small_problem, small_candidates):
        outcome = ExplorationEngine(
            small_problem, workers=1, prune=True
        ).sweep(small_candidates)
        for record in outcome.results:
            if record.status == STATUS_PRUNED:
                assert record.area is None
            elif record.status == STATUS_OK:
                assert record.area is not None
