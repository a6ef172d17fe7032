"""A failed sweep candidate is never the cached answer for a key.

A candidate whose every evaluation raises in one store lifetime ends
the sweep job ``failed`` instead of completing it with a ``failed``
record: the runner raises, the store retries the attempt (the resumed
sweep runs the journaled failure again) and then gives up.  A later
store on the same state directory, where the candidate evaluates,
resubmits the job and ends with the bytes of an uninterrupted run.
Every cache write of both lifetimes is inspected, so a payload holding
a ``failed`` candidate is never cached, not even transiently.
"""

from __future__ import annotations

import json

import pytest

from repro import durable
from repro.parallel import RetryPolicy, jobs
from repro.service import LocalSession, ServiceError

from .conftest import SMALL_TEXT

OPTIONS = {"limit": 6}


def _sweep_statuses(data):
    payload = json.loads(data.decode("utf-8"))
    if payload.get("kind") != "sweep":
        return []
    return [candidate["status"] for candidate in payload["candidates"]]


def test_failed_candidate_reruns_and_is_never_cached(tmp_path, monkeypatch):
    with LocalSession(str(tmp_path / "reference")) as session:
        reference = session.sweep(SMALL_TEXT, OPTIONS)
    best = reference.payload["best"]["periods"]

    cached = []
    real_replace = durable.replace

    def replace(path, data):
        cached.append(_sweep_statuses(data))
        return real_replace(path, data)

    monkeypatch.setattr(durable, "replace", replace)

    real_evaluate = jobs.evaluate
    attempts = []

    def evaluate(problem, job, tracer):
        if dict(job.periods) == best:
            attempts.append(job.attempt)
            raise RuntimeError("candidate lost")
        return real_evaluate(problem, job, tracer)

    state = str(tmp_path / "state")
    with monkeypatch.context() as patch:
        patch.setattr(jobs, "evaluate", evaluate)
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        with LocalSession(state, retry_policy=policy) as session:
            with pytest.raises(ServiceError, match="failed"):
                session.sweep(SMALL_TEXT, OPTIONS)
    # Two store attempts, each running the candidate twice: the second
    # attempt reran the failure the first one journaled.
    assert attempts == [1, 2, 1, 2]

    with LocalSession(state) as session:
        outcome = session.sweep(SMALL_TEXT, OPTIONS)
    assert not outcome.cached
    assert outcome.raw == reference.raw
    assert cached and all("failed" not in statuses for statuses in cached)
