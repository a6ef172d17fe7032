"""The JobStore submit memo: a repeat request costs a hash, not a parse.

``JobStore.submit`` keys a request by parsing and re-emitting its text
once; a byte-identical repeat finds the key through the raw-request
digest instead.  These tests pin that the memo never changes an
answer: keys equal :func:`cache_key`, errors are never memoized, and a
resubmitted terminal job carries the new call's own fault.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro.api
import repro.service.jobstore as jobstore_module
from repro.api import Problem, dumps_problem
from repro.errors import ReproError
from repro.parallel.checkpoint import load_jsonl_tolerant
from repro.parallel.retry import RetryPolicy
from repro.service import JobStore, cache_key
from repro.service.jobstore import STATE_EVICTED, request_digest
from repro.workloads.corpus import corpus_system

from .conftest import SMALL_TEXT

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: One attempt per job: a faulted attempt fails the job for good.
ONE_ATTEMPT = RetryPolicy(max_attempts=1, base_delay=0.0, max_delay=0.0)


def _corpus_text(processes: int, seed: int) -> str:
    instance = corpus_system(processes, seed=seed)
    return dumps_problem(
        Problem(
            instance.system, instance.library, instance.assignment, instance.periods
        )
    )


PROBLEMS = {
    "diffeq": (EXAMPLES / "diffeq_pair.sys").read_text(encoding="utf-8"),
    "paper": (EXAMPLES / "paper_system.sys").read_text(encoding="utf-8"),
    **{
        f"corpus-{processes}-s{seed}": _corpus_text(processes, seed)
        for processes, seed in ((2, 0), (3, 1), (4, 7))
    },
}


@pytest.fixture
def parses(monkeypatch):
    """Counts calls of ``repro.api.loads_problem`` (the canonicalizer's parse)."""
    calls = []
    real = repro.api.loads_problem

    def counting(text, *args, **kwargs):
        calls.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(repro.api, "loads_problem", counting)
    return calls


def _respell(text: str) -> str:
    """The same problem with comments, blank lines, and indentation."""
    lines = ["# a respelled copy", ""]
    for index, line in enumerate(text.splitlines()):
        lines.append(("   " if index % 2 else "") + line + "  ")
        if index % 3 == 0:
            lines.append(f"# note {index}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Same keys as the one-shot cache_key
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize(
    "kind,options", [("schedule", None), ("sweep", {"limit": 4})]
)
def test_first_and_repeat_submissions_key_like_cache_key(
    store, parses, name, kind, options
):
    text = PROBLEMS[name]
    expected = cache_key(kind, text, options)
    del parses[:]
    first, _ = store.submit(kind, text, options)
    again, _ = store.submit(kind, text, options)
    assert first.job_id == again.job_id == expected
    assert again is first
    # One parse for the first submission, none for the repeat.
    assert len(parses) == 1


def test_respellings_share_a_key_and_a_semantic_edit_does_not(store):
    base, _ = store.submit("schedule", SMALL_TEXT)
    respelled, _ = store.submit("schedule", _respell(SMALL_TEXT))
    assert respelled.job_id == base.job_id
    edited_text = SMALL_TEXT.replace("period adder 4", "period adder 2")
    edited, _ = store.submit("schedule", edited_text)
    assert edited.job_id != base.job_id
    assert edited.job_id == cache_key("schedule", edited_text)


def test_identical_resubmission_does_not_parse(store, parses):
    record, _ = store.submit("schedule", SMALL_TEXT)
    store.run_until_idle()
    del parses[:]
    again, hit = store.submit("schedule", SMALL_TEXT)
    assert hit and again.job_id == record.job_id
    assert parses == []
    # A different fault directive is the same request as far as the key
    # goes: still no parse.
    store.submit("schedule", SMALL_TEXT, fault="raise:ignored")
    assert parses == []


def test_options_in_another_key_order_hit_the_same_key(store, parses):
    first, _ = store.submit("sweep", SMALL_TEXT, {"limit": 4, "prune": False})
    del parses[:]
    second, _ = store.submit("sweep", SMALL_TEXT, {"prune": False, "limit": 4})
    assert second.job_id == first.job_id
    assert parses == []
    assert request_digest(
        "sweep", SMALL_TEXT, {"limit": 4, "prune": False}
    ) == request_digest("sweep", SMALL_TEXT, {"prune": False, "limit": 4})


# ----------------------------------------------------------------------
# Errors are never memoized
# ----------------------------------------------------------------------
def test_invalid_text_raises_the_same_error_every_time(store, parses):
    bad = "system broken\nop nowhere"
    codes = []
    for _ in range(3):
        with pytest.raises(ReproError) as excinfo:
            store.submit("schedule", bad)
        codes.append((type(excinfo.value), excinfo.value.code, str(excinfo.value)))
    assert len(set(codes)) == 1
    assert codes[0][1] in ("SPEC", "GRAPH")
    assert len(parses) == 3
    assert store.jobs() == []


def test_invalid_options_raise_every_time(store):
    for _ in range(2):
        with pytest.raises(ReproError) as excinfo:
            store.submit("schedule", SMALL_TEXT, {"turbo": True})
        assert excinfo.value.code == "SPEC"
    for _ in range(2):
        with pytest.raises(ReproError):
            store.submit("schedule", SMALL_TEXT, {"bad": object()})
    assert request_digest("schedule", SMALL_TEXT, {"bad": object()}) is None


# ----------------------------------------------------------------------
# Terminal jobs rebuild their spec from the record
# ----------------------------------------------------------------------
def test_failed_job_resubmitted_with_another_fault_requeues_with_it(
    tmp_path, parses
):
    with JobStore(str(tmp_path / "state"), retry_policy=ONE_ATTEMPT) as store:
        record, _ = store.submit("schedule", SMALL_TEXT, fault="raise:first")
        store.run_until_idle()
        assert record.state == "failed"
        assert "first" in record.error
        del parses[:]
        again, hit = store.submit("schedule", SMALL_TEXT, fault="raise:second")
        assert not hit
        assert again.state == "queued"
        assert again.spec.fault == "raise:second"
        assert parses == []
        store.run_until_idle()
        assert again.state == "failed"
        assert "second" in again.error
        # Without a fault the same request now completes.  (Running a job
        # parses its canonical text; submitting it does not.)
        del parses[:]
        final, _ = store.submit("schedule", SMALL_TEXT)
        assert final.spec.fault is None
        assert parses == []
        store.run_until_idle()
        assert final.state == "done"


def test_evicted_job_resubmitted_through_the_memo_reruns(store, parses):
    record, _ = store.submit("schedule", SMALL_TEXT)
    store.run_until_idle()
    first = store.result_bytes(record.job_id)
    store.gc(0)
    assert record.state == STATE_EVICTED
    del parses[:]
    again, hit = store.submit("schedule", SMALL_TEXT)
    assert not hit and parses == []
    store.run_until_idle()
    assert store.result_bytes(again.job_id) == first


def test_record_without_its_spec_is_never_served_from_the_memo(tmp_path):
    """A journal that lost a job's spec restores a placeholder spec; the
    memo must not rebuild a job from it."""
    state = str(tmp_path / "state")
    with JobStore(state) as first:
        record, _ = first.submit("schedule", SMALL_TEXT)
        first.run_until_idle()
        payload = first.result_bytes(record.job_id)
    journal = os.path.join(state, "jobs.jsonl")
    entries, _ = load_jsonl_tolerant(journal)
    with open(journal, "w", encoding="utf-8") as handle:
        for entry in entries:
            if "spec" not in entry:
                handle.write(json.dumps(entry) + "\n")
    with JobStore(state) as second:
        second.recover()
        assert second.status(record.job_id).spec.problem_text == ""
        _, hit = second.submit("schedule", SMALL_TEXT)
        assert hit
        second.gc(0)
        again, hit = second.submit("schedule", SMALL_TEXT)
        assert not hit
        assert again.spec.problem_text  # the canonical text, not the placeholder
        second.run_until_idle()
        assert again.state == "done"
        assert second.result_bytes(again.job_id) == payload


# ----------------------------------------------------------------------
# Bound
# ----------------------------------------------------------------------
def test_memo_is_bounded_least_recently_used(store, monkeypatch, parses):
    monkeypatch.setattr(jobstore_module, "SUBMIT_MEMO_SIZE", 2)
    texts = [SMALL_TEXT, _respell(SMALL_TEXT), SMALL_TEXT + "# third\n"]
    for text in texts:
        store.submit("schedule", text)
    assert len(store._memo) == 2
    del parses[:]
    store.submit("schedule", texts[2])  # still memoized
    assert parses == []
    store.submit("schedule", texts[0])  # evicted first: parsed again
    assert len(parses) == 1
