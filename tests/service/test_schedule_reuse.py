"""Schedule reuse across kinds (docs/service.md, "Byte-identical results").

A ``schedule`` job with default options and every ``certify`` job of one
problem report the same coupled schedule, so a store schedules a problem
once and the other siblings read the summary from committed payload
bytes.  Every key's bytes must still equal those of a fresh state dir
given that key alone, whichever sibling ran first.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.api import Problem, dumps_problem
from repro.core.scheduler import ModuloSystemScheduler
from repro.service import JobStore, LocalSession, cache_key
from repro.workloads.corpus import corpus_system

from .conftest import SMALL_TEXT

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

SCHEDULE = ("schedule", {})
CERTIFY = ("certify", {})
CERTIFY_ANY = ("certify", {"offset_model": "any"})

#: Each order runs its first key on a fresh state dir, so the first job
#: of every order is that key's fresh reference.
ORDERS = {
    "schedule-first": (SCHEDULE, CERTIFY, CERTIFY_ANY),
    "certify-first": (CERTIFY, SCHEDULE, CERTIFY_ANY),
    "certify-any-first": (CERTIFY_ANY, SCHEDULE, CERTIFY),
}


def _corpus_text(processes: int, seed: int) -> str:
    instance = corpus_system(processes, seed=seed)
    return dumps_problem(
        Problem(
            system=instance.system,
            library=instance.library,
            assignment=instance.assignment,
            periods=instance.periods,
        )
    )


SUBJECTS = {
    "diffeq_pair": lambda: (EXAMPLES / "diffeq_pair.sys").read_text("utf-8"),
    "paper_system": lambda: (EXAMPLES / "paper_system.sys").read_text("utf-8"),
    "corpus8": lambda: _corpus_text(8, 0),
}


@pytest.fixture
def scheduler_runs(monkeypatch):
    """Count coupled-scheduler runs (local baselines included)."""
    runs = []
    real = ModuloSystemScheduler.schedule

    def counting(self, *args, **kwargs):
        runs.append(args[0].name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ModuloSystemScheduler, "schedule", counting)
    return runs


def _run(store: JobStore, kind: str, text: str, options) -> bytes:
    record, _ = store.submit(kind, text, options)
    store.run_until_idle()
    final = store.wait(record.job_id, timeout=0)
    assert final.state == "done", final.error
    assert final.attempts == 1
    return store.result_bytes(record.job_id)


def _fresh_bytes(kind: str, text: str, options) -> bytes:
    with LocalSession() as session:
        return session.run(kind, text, options).raw


# ----------------------------------------------------------------------
# One run per problem, bytes independent of the order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("subject", sorted(SUBJECTS))
def test_siblings_schedule_once_in_any_order(tmp_path, scheduler_runs, subject):
    text = SUBJECTS[subject]()
    fresh = {}
    reused = []
    for name, order in ORDERS.items():
        del scheduler_runs[:]
        with JobStore(str(tmp_path / name)) as store:
            for index, (kind, options) in enumerate(order):
                raw = _run(store, kind, text, options)
                payload = json.loads(raw)
                assert payload["verified"] is True
                assert payload["kind"] == kind
                key = (kind, tuple(sorted(options.items())))
                if index == 0:
                    fresh[key] = raw
                else:
                    reused.append((name, key, raw))
            assert len(scheduler_runs) == 1, name
            assert store.metrics.counter_value("service_schedules_reused") == 2
    assert len(fresh) == 3 and len(reused) == 6
    for name, key, raw in reused:
        assert raw == fresh[key], (name, key)


def test_key_pool_stream_schedules_each_problem_once(tmp_path, scheduler_runs):
    # The service-mix shape in small: every (kind, problem) key once,
    # then seeded repeats, shuffled.
    texts = [SMALL_TEXT, SUBJECTS["diffeq_pair"](), _corpus_text(4, 0)]
    keys = [(kind, text) for text in texts for kind in ("schedule", "certify")]
    rng = random.Random(1)
    stream = keys * 2 + rng.sample(keys, 3)
    rng.shuffle(stream)
    with LocalSession(str(tmp_path / "state")) as session:
        hits = sum(session.run(kind, text).cached for kind, text in stream)
        metrics = session.store.metrics
        assert metrics.counter_value("service_jobs_completed") == len(keys)
        assert metrics.counter_value("service_schedules_reused") == len(texts)
    assert hits == len(stream) - len(keys)
    assert len(scheduler_runs) == len(texts)


# ----------------------------------------------------------------------
# Non-default schedule options neither reuse nor feed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("options", [{"local": True}, {"max_iterations": 5}])
def test_non_default_schedule_does_not_reuse(tmp_path, scheduler_runs, options):
    text = SUBJECTS["diffeq_pair"]()
    with JobStore(str(tmp_path / "state")) as store:
        _run(store, "schedule", text, {})
        _run(store, "certify", text, {})
        raw = _run(store, "schedule", text, options)
        assert len(scheduler_runs) == 2
        assert store.metrics.counter_value("service_schedules_reused") == 1
    assert raw == _fresh_bytes("schedule", text, options)


@pytest.mark.parametrize("options", [{"local": True}, {"max_iterations": 5}])
def test_non_default_schedule_never_feeds_a_sibling(
    tmp_path, scheduler_runs, options
):
    text = SUBJECTS["diffeq_pair"]()
    with JobStore(str(tmp_path / "state")) as store:
        _run(store, "schedule", text, options)
        certified = _run(store, "certify", text, {})
        scheduled = _run(store, "schedule", text, {})
        assert len(scheduler_runs) == 2
        assert store.metrics.counter_value("service_schedules_reused") == 1
    assert certified == _fresh_bytes("certify", text, {})
    assert scheduled == _fresh_bytes("schedule", text, {})


def test_sweep_is_untouched(tmp_path, scheduler_runs):
    with JobStore(str(tmp_path / "state")) as store:
        _run(store, "schedule", SMALL_TEXT, {})
        before = len(scheduler_runs)
        _run(store, "sweep", SMALL_TEXT, {"limit": 3})
        assert len(scheduler_runs) > before
        assert store.metrics.counter_value("service_schedules_reused") == 0


# ----------------------------------------------------------------------
# Unreadable siblings fall back to scheduling
# ----------------------------------------------------------------------
def _truncated(raw: bytes) -> bytes:
    return raw[: len(raw) // 2]


def _without_starts(raw: bytes) -> bytes:
    payload = json.loads(raw)
    del payload["starts"]
    return json.dumps(payload).encode("utf-8")


def _missing_block(raw: bytes) -> bytes:
    payload = json.loads(raw)
    assert len(payload["starts"]) == 2
    del payload["starts"][sorted(payload["starts"])[0]]
    return json.dumps(payload).encode("utf-8")


@pytest.mark.parametrize("damage", [_truncated, _without_starts, _missing_block])
def test_damaged_sibling_is_skipped(tmp_path, scheduler_runs, damage):
    with JobStore(str(tmp_path / "state")) as store:
        schedule_key = cache_key("schedule", SMALL_TEXT)
        _run(store, "schedule", SMALL_TEXT, {})
        path = os.path.join(store.cache_dir, f"{schedule_key}.json")
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(damage(raw))
        certified = _run(store, "certify", SMALL_TEXT, {})
        assert len(scheduler_runs) == 2
        assert store.metrics.counter_value("service_schedules_reused") == 0
        assert store.metrics.counter_value("service_jobs_retried") == 0
        assert store.metrics.counter_value("service_jobs_failed") == 0
    assert certified == _fresh_bytes("certify", SMALL_TEXT, {})


def test_sibling_evicted_before_the_read_is_skipped(
    tmp_path, scheduler_runs, monkeypatch
):
    with JobStore(str(tmp_path / "state")) as store:
        schedule_key = cache_key("schedule", SMALL_TEXT)
        _run(store, "schedule", SMALL_TEXT, {})
        real = store._cache_file_ok
        evictions = []

        def evicting(job_id: str) -> bool:
            ok = real(job_id)
            if ok and job_id == schedule_key:
                # The lookup saw a committed payload; gc takes it away
                # before the read.
                evictions.append(store.gc(0)["evicted"])
            return ok

        monkeypatch.setattr(store, "_cache_file_ok", evicting)
        certified = _run(store, "certify", SMALL_TEXT, {})
        assert evictions == [1]
        assert store.status(schedule_key).state == "evicted"
        assert len(scheduler_runs) == 2
        assert store.metrics.counter_value("service_schedules_reused") == 0
        assert store.metrics.counter_value("service_jobs_retried") == 0
    assert certified == _fresh_bytes("certify", SMALL_TEXT, {})
