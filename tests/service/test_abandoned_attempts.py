"""A timed-out sweep attempt never journals behind its successor's back.

The store abandons an attempt at its time budget and starts a fresh
one, which loads the sweep journal.  The abandoned thread is still
evaluating a candidate at that moment; it must drop that candidate
when the evaluation ends instead of journaling it a second time.
"""

from __future__ import annotations

import json
import os

from repro.parallel.checkpoint import candidate_key, load_jsonl_tolerant
from repro.parallel.retry import RetryPolicy
from repro.service import JobStore, LocalSession

from .conftest import SMALL_TEXT

#: Two candidates fit in one attempt; the budget ends 0.1 s into the
#: third, so every abandoned attempt is mid-evaluation.
OPTIONS = {"limit": 6, "candidate_delay": 0.2, "prune": False}


def test_timed_out_attempts_journal_each_candidate_once(tmp_path):
    with LocalSession() as session:
        reference = session.sweep(SMALL_TEXT, OPTIONS).raw
    state = str(tmp_path / "state")
    with JobStore(
        state,
        job_timeout=0.5,
        retry_policy=RetryPolicy(max_attempts=6, base_delay=0.0),
    ) as store:
        record, _ = store.submit("sweep", SMALL_TEXT, OPTIONS)
        store.run_until_idle()
        assert store.wait(record.job_id, timeout=0).state == "done"
        assert record.attempts > 1
        assert store.result_bytes(record.job_id) == reference
    records, _ = load_jsonl_tolerant(
        os.path.join(state, "sweeps", f"{record.job_id}.jsonl")
    )
    keys = [candidate_key(entry["periods"]) for entry in records]
    assert len(keys) == len(set(keys)) == json.loads(reference)["total"]
