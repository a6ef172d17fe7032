"""Chaos harness: kill the server mid-sweep, restart, finish exactly-once.

The acceptance bar of docs/service.md: under every injected failure —
``SIGKILL``, a hard ``os._exit`` crash, a hung attempt, a corrupted
sweep journal — a restarted server resumes the in-flight job, evaluates
no candidate twice, and converges to payload bytes identical to an
uninterrupted run of the same spec.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.parallel.checkpoint import candidate_key, load_jsonl_tolerant
from repro.service import LocalSession, ServiceClient, ServiceError, cache_key

from .conftest import SMALL_TEXT

#: The chaos workload: a sweep slow enough (0.4 s per evaluated
#: candidate) that a kill reliably lands between candidates.  The delay
#: is part of the cache key, so the uninterrupted reference run must use
#: the identical options.
SWEEP_OPTIONS = {"limit": 6, "candidate_delay": 0.4}

JOB_ID = cache_key("sweep", SMALL_TEXT, SWEEP_OPTIONS)


@pytest.fixture(scope="module")
def reference_bytes():
    """The uninterrupted serial run every chaotic run must reproduce."""
    with LocalSession() as session:
        outcome = session.sweep(SMALL_TEXT, SWEEP_OPTIONS)
    assert outcome.job_id == JOB_ID
    return outcome.raw


def _submit_sweep(address: str) -> str:
    client = ServiceClient(address, timeout=10.0)
    try:
        status = client.submit("sweep", SMALL_TEXT, SWEEP_OPTIONS)
        return str(status["job"])
    except ServiceError:
        # The injected crash can kill the server between journaling the
        # job (fsync-before-ack) and answering; the job id is knowable
        # anyway — it is the cache key.
        return JOB_ID


def _sweep_journal_path(state_dir: str, job_id: str) -> str:
    return os.path.join(state_dir, "sweeps", f"{job_id}.jsonl")


def _wait_for_candidates(path: str, count: int, timeout: float = 20.0) -> None:
    """Block until ``count`` candidate records are durably journaled."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            records, _ = load_jsonl_tolerant(path)
            if len(records) >= count:
                return
        time.sleep(0.02)
    raise AssertionError(f"never saw {count} journaled candidate(s)")


def _finish_and_check(proc, job_id: str, reference: bytes) -> None:
    """Wait for the job on ``proc``, then assert the exactly-once bar."""
    client = ServiceClient(proc.address, timeout=10.0)
    final = client.wait(job_id, timeout=120.0)
    assert final["state"] == "done", final
    assert client.result_bytes(job_id) == reference
    # Exactly-once at candidate granularity: the sweep journal holds
    # each candidate at most once, covering the whole sweep.
    records, _ = load_jsonl_tolerant(
        _sweep_journal_path(proc.state_dir, job_id)
    )
    keys = [candidate_key(r["periods"]) for r in records]
    assert len(keys) == len(set(keys)), "a candidate was evaluated twice"
    assert len(keys) == json.loads(reference)["total"]
    # Resubmission is answered from the durable cache, byte-identically.
    resubmit = client.submit("sweep", SMALL_TEXT, SWEEP_OPTIONS)
    assert resubmit["cached"] is True
    assert client.result_bytes(job_id) == reference


def test_sigkill_mid_sweep_resumes_exactly_once(
    serve_factory, reference_bytes
):
    first = serve_factory()
    job_id = _submit_sweep(first.address)
    journal = _sweep_journal_path(first.state_dir, job_id)
    # Let some candidates land, then pull the plug with no warning.
    _wait_for_candidates(journal, 1)
    first.sigkill()
    restarted = serve_factory()  # same state dir; recovery is startup
    _finish_and_check(restarted, job_id, reference_bytes)


def test_hard_exit_crash_resumes_exactly_once(
    serve_factory, reference_bytes
):
    # The fault plan os._exit(3)s the whole server on the job's first
    # attempt — the crash is the server's own worker, not an outside
    # signal.
    crashing = serve_factory("--inject-fault", "exit:3@1")
    job_id = _submit_sweep(crashing.address)
    assert crashing.wait_exit() == 3
    restarted = serve_factory()
    _finish_and_check(restarted, job_id, reference_bytes)


def test_hung_attempt_times_out_and_retries(
    serve_factory, reference_bytes
):
    # Attempt 1 hangs far past the per-attempt budget; the worker
    # abandons it and attempt 2 completes — no restart needed.  The
    # budget leaves a clean attempt (~2 s of candidate delays) room.
    proc = serve_factory(
        "--job-timeout", "5.0", "--inject-fault", "hang:30@1"
    )
    job_id = _submit_sweep(proc.address)
    _finish_and_check(proc, job_id, reference_bytes)
    client = ServiceClient(proc.address, timeout=10.0)
    assert client.status(job_id)["attempts"] == 2


def test_corrupted_sweep_journal_still_resumes(
    serve_factory, reference_bytes
):
    # corrupt-journal garbles the sweep journal before the candidates
    # run; SIGKILL then tears the run mid-sweep.  Recovery must read
    # around the garbage line and still not repeat a candidate.
    chaotic = serve_factory("--inject-fault", "corrupt-journal@1")
    job_id = _submit_sweep(chaotic.address)
    journal = _sweep_journal_path(chaotic.state_dir, job_id)
    _wait_for_candidates(journal, 1)
    chaotic.sigkill()
    _, dropped = load_jsonl_tolerant(journal)
    assert dropped >= 1, "the fault should have garbled the journal"
    restarted = serve_factory()
    _finish_and_check(restarted, job_id, reference_bytes)


def test_crash_on_a_reusing_certify_attempt_recovers(serve_factory):
    # The schedule job commits; the fault plan then os._exit(3)s the
    # server as the certify attempt, which would reuse that schedule,
    # starts.  The restarted server must finish the certify job with
    # the bytes of an uninterrupted run.
    with LocalSession() as session:
        reference = session.certify(SMALL_TEXT).raw
    crashing = serve_factory("--inject-fault", "exit:3@2")
    client = ServiceClient(crashing.address, timeout=10.0)
    scheduled = client.submit("schedule", SMALL_TEXT)
    assert client.wait(str(scheduled["job"]), timeout=60.0)["state"] == "done"
    certify_id = cache_key("certify", SMALL_TEXT)
    try:
        client.submit("certify", SMALL_TEXT)
    except ServiceError:
        pass  # the crash may beat the acknowledgment; the id is the key
    assert crashing.wait_exit() == 3
    restarted = serve_factory()
    client = ServiceClient(restarted.address, timeout=10.0)
    final = client.wait(certify_id, timeout=120.0)
    assert final["state"] == "done", final
    assert client.result_bytes(certify_id) == reference
    assert "service_schedules_reused_total 1" in client.metrics_text()
    resubmit = client.submit("certify", SMALL_TEXT)
    assert resubmit["cached"] is True
    assert client.result_bytes(certify_id) == reference
