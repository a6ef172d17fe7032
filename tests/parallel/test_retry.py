"""RetryPolicy math and its integration with the exploration engine."""

from __future__ import annotations

import pytest

from repro.parallel import (
    DEFAULT_RETRY_POLICY,
    ExplorationEngine,
    RetryPolicy,
    SweepInterrupted,
    SweepJournal,
)


class TestPolicyMath:
    def test_default_policy_shape(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 3
        assert DEFAULT_RETRY_POLICY.retries == 2
        assert list(DEFAULT_RETRY_POLICY.delays()) == [0.0, 0.1, 0.2]

    def test_first_attempt_never_waits(self):
        assert RetryPolicy(max_attempts=5).delay_for(1) == 0.0

    def test_delays_grow_geometrically_and_clamp(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=1.0, multiplier=3.0, max_delay=10.0
        )
        assert list(policy.delays()) == [0.0, 1.0, 3.0, 9.0, 10.0, 10.0]
        assert policy.total_delay() == 33.0

    def test_allows_is_the_attempt_window(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.allows(1)
        assert policy.allows(2)
        assert not policy.allows(3)
        assert not policy.allows(0)

    def test_delay_outside_the_window_is_a_caller_bug(self):
        policy = RetryPolicy(max_attempts=2)
        with pytest.raises(ValueError):
            policy.delay_for(0)
        with pytest.raises(ValueError):
            policy.delay_for(3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -0.1},
            {"multiplier": 0.5},
            {"base_delay": 5.0, "max_delay": 1.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_never_retry_policy(self):
        policy = RetryPolicy(max_attempts=1)
        assert policy.retries == 0
        assert list(policy.delays()) == [0.0]


class TestEngineIntegration:
    def test_failed_candidate_exhausts_the_policy(
        self, small_problem, small_candidates
    ):
        target = dict(small_candidates[0].as_dict)
        policy = RetryPolicy(max_attempts=3, base_delay=0.001)
        engine = ExplorationEngine(
            small_problem,
            retry_policy=policy,
            prune=False,
            fault_for=lambda periods: (
                "raise:flaky" if periods == target else None
            ),
        )
        outcome = engine.sweep(small_candidates)
        failed = [r for r in outcome.results if r.status == "failed"]
        assert len(failed) == 1
        assert failed[0].attempts == policy.max_attempts


class TestStopWhen:
    def test_stop_before_first_candidate_journals_nothing(
        self, tmp_path, small_problem, small_candidates
    ):
        path = tmp_path / "ck.jsonl"
        engine = ExplorationEngine(
            small_problem, checkpoint=path, stop_when=lambda: True
        )
        with pytest.raises(SweepInterrupted):
            engine.sweep(small_candidates)
        assert SweepJournal(path).load() == {}

    def test_stop_fires_at_the_candidate_boundary(
        self, tmp_path, small_problem, small_candidates
    ):
        """An abandoned sweep stops before evaluating (or journaling)
        its next candidate — the service's timed-out attempts rely on
        this to never race a successor on the shared journal."""
        path = tmp_path / "ck.jsonl"
        seen = []
        engine = ExplorationEngine(
            small_problem,
            checkpoint=path,
            prune=False,
            stop_when=lambda: len(seen) >= 2,
        )
        with pytest.raises(SweepInterrupted):
            engine.sweep(small_candidates, on_result=seen.append)
        assert len(seen) == 2
        assert len(SweepJournal(path).load()) == 2
        # Resuming without the stop probe completes the rest once each.
        resumed = ExplorationEngine(
            small_problem, checkpoint=path, prune=False
        ).sweep(small_candidates)
        assert resumed.telemetry["candidates_restored"] == 2
        fresh = [r for r in resumed.results if not r.restored]
        assert len(fresh) == len(small_candidates) - 2
