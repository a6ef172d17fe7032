"""Every durable write of a job stream, crashed at in turn.

The service's exactly-once guarantee rests on the writes of
:mod:`repro.durable`: journal appends and atomic cache replaces.  This
test counts the writes a three-job stream makes on a fresh state
directory, then, for every write K, forks a child that runs the stream
and dies at write K: once just after the write completed, and once with
it torn (half a record appended, or half a temp file that is never
renamed).  A session reopened on the child's state directory must meet
the chaos harness's bar for every job: state ``done``, the bytes of an
uninterrupted run, each sweep candidate journaled once, and a cached
resubmission.  docs/robustness.md "Durable writes" lists these crash
points and what recovery does at each.
"""

from __future__ import annotations

import os

import pytest

from repro import durable
from repro.parallel.checkpoint import candidate_key, load_jsonl_tolerant
from repro.service import LocalSession, cache_key

from .conftest import SMALL_TEXT

#: sweep, then schedule, then a certify that reuses the schedule.
STREAM = (("sweep", {"limit": 6}), ("schedule", {}), ("certify", {}))

#: The stream's durable writes: per job a ``queued`` and a ``running``
#: record, the cache replace and the ``done`` record, plus the sweep's
#: six candidate records.
WRITES = 4 * len(STREAM) + 6

#: Exit status of a child that crashed where it was told to.
CRASHED = 70

KEYS = [cache_key(kind, SMALL_TEXT, options) for kind, options in STREAM]


def _run_stream(state_dir):
    with LocalSession(state_dir) as session:
        return [session.run(kind, SMALL_TEXT, options) for kind, options in STREAM]


def _tear(path, data):
    with open(path, "ab") as handle:
        handle.write(data[: len(data) // 2])


def _crashing_writes(target, torn):
    """Fakes of :func:`durable.append` / :func:`durable.replace` that
    ``os._exit`` at write number ``target``."""
    real_append, real_replace = durable.append, durable.replace
    count = [0]

    def crash_here():
        count[0] += 1
        return count[0] == target

    def append(path, data):
        if not crash_here():
            return real_append(path, data)
        if torn:
            _tear(path, data)
        else:
            real_append(path, data)
        os._exit(CRASHED)

    def replace(path, data):
        if not crash_here():
            return real_replace(path, data)
        if torn:
            _tear(durable.temp_path(path), data)
        else:
            real_replace(path, data)
        os._exit(CRASHED)

    return append, replace


def _crash_child(state_dir, target, torn):
    """Run the stream in a forked child that dies at write ``target``."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            durable.append, durable.replace = _crashing_writes(target, torn)
            _run_stream(state_dir)
        except BaseException:
            os._exit(1)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Payload bytes of the uninterrupted stream, and its write count."""
    calls = []
    real_append, real_replace = durable.append, durable.replace

    def append(path, data):
        calls.append(("append", path))
        real_append(path, data)

    def replace(path, data):
        calls.append(("replace", path))
        real_replace(path, data)

    durable.append, durable.replace = append, replace
    try:
        outcomes = _run_stream(str(tmp_path_factory.mktemp("reference")))
    finally:
        durable.append, durable.replace = real_append, real_replace
    return [outcome.raw for outcome in outcomes], calls


def test_the_stream_makes_the_enumerated_writes(reference):
    _, calls = reference
    assert len(calls) == WRITES
    assert [kind for kind, _ in calls].count("replace") == len(STREAM)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("torn", [False, True], ids=["after", "torn"])
def test_recovery_after_a_crash_at_every_write(tmp_path, reference, torn):
    expected, _ = reference
    for target in range(1, WRITES + 1):
        state = str(tmp_path / f"state-{target}")
        assert _crash_child(state, target, torn) == CRASHED, target
        with LocalSession(state) as session:
            session.store.run_until_idle()
            for (kind, options), key, raw in zip(STREAM, KEYS, expected):
                assert session.run(kind, SMALL_TEXT, options).raw == raw, (
                    target,
                    kind,
                )
                assert session.store.status(key).state == "done"
                again = session.run(kind, SMALL_TEXT, options)
                assert again.cached and again.raw == raw, (target, kind)
        records, _ = load_jsonl_tolerant(
            os.path.join(state, "sweeps", f"{KEYS[0]}.jsonl")
        )
        journaled = [candidate_key(record["periods"]) for record in records]
        assert sorted(set(journaled)) == sorted(journaled), target
        assert len(journaled) == 6, target
        assert sorted(os.listdir(os.path.join(state, "cache"))) == sorted(
            f"{key}.json" for key in KEYS
        ), target
