"""Durable job store: submit/status/result/cancel with exactly-once resume.

The :class:`JobStore` is the layer the CLI session and the ``repro
serve`` daemon share.  It owns three pieces of on-disk state under its
``state_dir``:

``jobs.jsonl``
    The crash-safe job journal.  Every job-state transition is appended
    with :func:`repro.durable.append` *before* the effect is surfaced
    (fsync-before-ack), and loading tolerates torn or corrupt lines
    byte-robustly (:func:`repro.durable.load_jsonl_tolerant`), so a
    ``SIGKILL`` at any instant loses at most the in-flight transition —
    never completed work.

``cache/<key>.json``
    The content-addressed result cache.  A job's identity *is* its
    :func:`repro.service.cachekey.cache_key`; payloads are canonical
    JSON bytes written atomically (:func:`repro.durable.replace`), so
    repeated submissions of the same problem return
    byte-identical bytes without rescheduling.  :meth:`JobStore.gc`
    bounds the cache to a byte budget by evicting least-recently-used
    payloads (mtime is refreshed on every hit) behind fsync'd
    ``evicted`` tombstones, so recovery never resurrects an evicted
    payload; re-submitting an evicted key simply re-runs the job.

``sweeps/<key>.jsonl``
    Per-sweep candidate journals (:class:`repro.parallel.checkpoint.
    SweepJournal`).  A sweep job killed mid-run resumes from its own
    journal: already-evaluated candidates are restored, the incumbent
    area bound is re-seeded, and no candidate is evaluated twice.

Exactly-once semantics (docs/service.md): results are committed by the
ordered pair *cache write → ``done`` journal record*.  On recovery a
job whose cache file exists is complete regardless of its journaled
state (the crash fell between the two steps); a job journaled
``queued``/``running`` without a cache file re-runs, and its observable
work is idempotent — candidate-level progress lives in the sweep
journal, and payload bytes are a pure function of the cache key.

Failure policy: each attempt may be bounded by ``job_timeout``; failed
or timed-out attempts retry under a bounded exponential-backoff
:class:`repro.parallel.retry.RetryPolicy`; overload degrades to
:class:`QueueFullError` (HTTP 429 at the server) instead of unbounded
queue growth.  A deterministic :class:`repro.parallel.jobs.FaultPlan`
can target the Nth attempt started by this store — the chaos harness's
hook (``repro serve --inject-fault``).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Deque, Dict, List, Mapping, Optional, Tuple

from .. import durable
from ..errors import ReproError
from ..obs.logconfig import get_logger
from ..obs.metrics import MetricsRegistry
from ..parallel.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .cachekey import canonical_options, canonical_problem_text, key_of_canonical

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.events import EventBus
    from ..parallel.jobs import FaultPlan

_log = get_logger(__name__)

#: Job journal schema version.
JOB_JOURNAL_VERSION = 1

#: Entries of a store's submit memo (raw-request digest -> cache key),
#: evicted least recently used first.
SUBMIT_MEMO_SIZE = 4096

#: Job kinds the runner knows how to execute.
JOB_KINDS = ("schedule", "sweep", "certify")

#: Job lifecycle states.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"
#: A finished job whose cached payload was garbage-collected: the
#: tombstone is terminal (recovery never resurrects the payload) but a
#: re-submission re-runs the job like a failed/cancelled one.
STATE_EVICTED = "evicted"

TERMINAL_STATES = frozenset(
    {STATE_DONE, STATE_FAILED, STATE_CANCELLED, STATE_EVICTED}
)


class ServiceError(ReproError):
    """The scheduling service hit an unusable request or broken state."""

    code = "SERVE"


class QueueFullError(ServiceError):
    """The job queue is at capacity; the caller should retry later."""

    code = "BUSY"


class UnknownJobError(ServiceError):
    """No job with the requested id exists in this store."""

    code = "JOB"


class JobCancelled(Exception):
    """Raised inside a job attempt when its cancellation was requested."""


def request_digest(
    kind: str,
    problem_text: str,
    options: Optional[Mapping[str, object]] = None,
) -> Optional[str]:
    """SHA-256 of a raw request: kind, JSON-canonical options, raw text.

    Equal digests mean the same kind, equal options and byte-identical
    texts, hence equal cache keys, without parsing anything.  None when the options are not
    JSON-serializable: such a request has no key, and
    :meth:`JobSpec.create` raises its error.
    """
    try:
        header = json.dumps(
            [kind, dict(options) if options else {}],
            sort_keys=True,
            separators=(",", ":"),
        )
    except (TypeError, ValueError):
        return None
    # The JSON header holds no raw newline, so the first one ends it.
    digest = hashlib.sha256(header.encode("utf-8"))
    digest.update(b"\n")
    digest.update(problem_text.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """What one job computes, as canonical plain data.

    ``problem_text`` is already canonical (parse + re-emit), ``options``
    already JSON-round-tripped — two specs with the same ``cache key``
    are field-for-field equal.  ``fault`` is the test-only injection
    directive; it is deliberately *excluded* from the cache key (a
    faulted run must still converge to the same cached bytes).
    """

    kind: str
    problem_text: str
    options: Mapping[str, object]
    fault: Optional[str] = None

    @classmethod
    def create(
        cls,
        kind: str,
        problem_text: str,
        options: Optional[Mapping[str, object]] = None,
        fault: Optional[str] = None,
    ) -> Tuple["JobSpec", str]:
        """Canonicalize a request; returns ``(spec, cache_key)``."""
        if kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {kind!r}; known: {', '.join(JOB_KINDS)}"
            )
        canonical = canonical_problem_text(problem_text)
        opts = canonical_options(kind, options)
        key = key_of_canonical(kind, canonical, opts)
        return cls(kind, canonical, opts, fault), key

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "problem": self.problem_text,
            "options": dict(self.options),
            "fault": self.fault,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobSpec":
        return cls(
            kind=str(data["kind"]),
            problem_text=str(data["problem"]),
            options=dict(data.get("options") or {}),  # type: ignore[arg-type]
            fault=data.get("fault"),  # type: ignore[arg-type]
        )


@dataclass
class JobRecord:
    """Mutable in-store state of one job."""

    job_id: str
    spec: JobSpec
    state: str = STATE_QUEUED
    attempts: int = 0
    error: Optional[str] = None
    #: True when this record was answered from the result cache without
    #: any execution in this store's lifetime.
    cached: bool = False
    created: float = field(default_factory=time.time)
    updated: float = field(default_factory=time.time)
    cancel_event: threading.Event = field(default_factory=threading.Event)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self) -> Dict[str, object]:
        """The status shape the HTTP API and ``repro jobs`` render."""
        return {
            "job": self.job_id,
            "kind": self.spec.kind,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "cached": self.cached,
            "created": self.created,
            "updated": self.updated,
        }


class JobStore:
    """Crash-safe job queue + content-addressed result cache.

    Thread-safe: ``submit``/``status``/``cancel`` may be called from
    request-handler threads while worker threads drain the queue via
    :meth:`process_one`.  See the module docstring for the durability
    contract and docs/service.md for the architecture.

    Args:
        state_dir: Directory holding the journal, cache, and sweep
            journals; created if missing.
        queue_limit: Ceiling on *queued* (not yet running) jobs; a
            submit beyond it raises :class:`QueueFullError`.
        job_timeout: Per-attempt wall-clock budget in seconds (None =
            unlimited).  Enforced by the worker joining the attempt
            thread; a timed-out attempt is asked to stop cooperatively
            and its late output is discarded.
        retry_policy: Bounded exponential backoff for failed attempts.
        fault_plan: Deterministic chaos hook: a directive fired on the
            Nth attempt started by this store (see
            :class:`repro.parallel.jobs.FaultPlan`).
        metrics: Optional shared :class:`repro.obs.metrics.
            MetricsRegistry`; one is created when omitted.
        bus: Optional :class:`repro.obs.events.EventBus`; every job
            state transition is published as a plain ``{"name": "job",
            ...}`` dict.
    """

    def __init__(
        self,
        state_dir: str,
        *,
        queue_limit: int = 64,
        job_timeout: Optional[float] = None,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        fault_plan: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        bus: "Optional[EventBus]" = None,
    ) -> None:
        if queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {queue_limit}")
        self.state_dir = str(state_dir)
        self.cache_dir = os.path.join(self.state_dir, "cache")
        self.sweep_dir = os.path.join(self.state_dir, "sweeps")
        self.journal_path = os.path.join(self.state_dir, "jobs.jsonl")
        os.makedirs(self.cache_dir, exist_ok=True)
        os.makedirs(self.sweep_dir, exist_ok=True)
        self.queue_limit = queue_limit
        self.job_timeout = job_timeout
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bus = bus
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, JobRecord] = {}
        self._queue: Deque[str] = deque()
        #: Submit memo: :func:`request_digest` -> cache key, LRU-bounded
        #: by :data:`SUBMIT_MEMO_SIZE`.
        self._memo: "OrderedDict[str, str]" = OrderedDict()
        #: Attempt starts across this store's lifetime (fault-plan index).
        self._executions = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Submission and inspection
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        problem_text: str,
        options: Optional[Mapping[str, object]] = None,
        fault: Optional[str] = None,
    ) -> Tuple[JobRecord, bool]:
        """Submit a job; returns ``(record, cache_hit)``.

        Identical submissions coalesce: a key already queued, running,
        or done returns the existing record (``cache_hit`` True only
        when its result bytes are already durable).  A key whose cached
        payload survives on disk — from any previous store lifetime —
        is answered without any scheduling at all.

        A request byte-identical to one this store has already keyed is
        not parsed again: its :func:`request_digest` finds the key in
        the submit memo, and the canonical spec is the job record's.
        """
        digest = request_digest(kind, problem_text, options)
        known = self._recall(digest, fault)
        if known is None:
            spec, key = JobSpec.create(kind, problem_text, options, fault)
        else:
            spec, key = known
        with self._cond:
            self._check_open()
            self._remember(digest, key)
            record = self._jobs.get(key)
            if record is not None and not (
                record.state in (STATE_FAILED, STATE_CANCELLED, STATE_EVICTED)
            ):
                hit = record.state == STATE_DONE
                if hit:
                    self.metrics.inc("service_cache_hits")
                    self._touch_cache(key)
                self.metrics.inc("service_jobs_coalesced")
                return record, hit
            if self._cache_file_ok(key):
                self._touch_cache(key)
                record = JobRecord(
                    job_id=key, spec=spec, state=STATE_DONE, cached=True
                )
                self._jobs[key] = record
                self.metrics.inc("service_cache_hits")
                return record, True
            if len(self._queue) >= self.queue_limit:
                self.metrics.inc("service_queue_rejected")
                raise QueueFullError(
                    f"job queue is full ({self.queue_limit} queued); "
                    "retry later"
                )
            if record is None:
                record = JobRecord(job_id=key, spec=spec)
                self._jobs[key] = record
            else:
                # Re-submission of a failed/cancelled job starts fresh.
                record.spec = spec
                record.state = STATE_QUEUED
                record.attempts = 0
                record.error = None
                record.cached = False
                record.cancel_event = threading.Event()
            self._append_journal(
                record, STATE_QUEUED, attempt=0, spec=spec.as_dict()
            )
            self._queue.append(key)
            self.metrics.inc("service_jobs_submitted")
            self.metrics.set_gauge("service_queue_depth", len(self._queue))
            self._cond.notify_all()
        self._publish(record)
        return record, False

    def status(self, job_id: str) -> JobRecord:
        """The record of ``job_id``; raises :class:`UnknownJobError`."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is not None:
                return record
        raise UnknownJobError(f"unknown job {job_id!r}")

    def jobs(self) -> List[JobRecord]:
        """Every known job, oldest submission first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda r: r.created)

    def result_bytes(self, job_id: str) -> bytes:
        """The cached payload bytes of a finished job, verbatim."""
        record = self.status(job_id)
        if record.state != STATE_DONE:
            raise ServiceError(
                f"job {job_id} is {record.state}, not done"
                + (f": {record.error}" if record.error else "")
            )
        path = self._cache_path(job_id)
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except OSError as exc:
            raise ServiceError(
                f"result of job {job_id} is missing from the cache: {exc}"
            ) from exc

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True when the job will not complete.

        Queued jobs are cancelled immediately; running jobs are asked to
        stop at their next cancellation point (the attempt then reports
        ``cancelled``); terminal jobs return False.
        """
        with self._cond:
            record = self._jobs.get(job_id)
            if record is None:
                raise UnknownJobError(f"unknown job {job_id!r}")
            if record.terminal:
                return False
            record.cancel_event.set()
            if record.state == STATE_QUEUED:
                try:
                    self._queue.remove(job_id)
                except ValueError:
                    pass
                self._transition(record, STATE_CANCELLED)
                self.metrics.set_gauge(
                    "service_queue_depth", len(self._queue)
                )
            return True

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> JobRecord:
        """Block until ``job_id`` reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            record = self._jobs.get(job_id)
            if record is None:
                raise UnknownJobError(f"unknown job {job_id!r}")
            while not record.terminal:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ServiceError(
                            f"timed out waiting for job {job_id}"
                        )
                self._cond.wait(remaining)
            return record

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def process_one(self, timeout: Optional[float] = None) -> Optional[str]:
        """Run the next queued job attempt; returns its id (None = idle).

        The body of a worker thread's loop.  Blocks up to ``timeout``
        seconds for a job to arrive (None = forever, 0 = poll).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._cond.wait(remaining)
            job_id = self._queue.popleft()
            record = self._jobs[job_id]
            self.metrics.set_gauge("service_queue_depth", len(self._queue))
        self._execute(record)
        return job_id

    def run_until_idle(self) -> int:
        """Drain the queue synchronously; returns jobs processed."""
        processed = 0
        while self.process_one(timeout=0.0) is not None:
            processed += 1
        return processed

    def recover(self) -> int:
        """Restore journaled jobs after a restart; returns requeued count.

        Terminal jobs come back as history; ``queued``/``running`` jobs
        whose cache file already exists are promoted to ``done`` (the
        crash fell between the cache write and the ``done`` record);
        the rest re-enter the queue with their attempt count preserved,
        and sweep jobs resume from their candidate journal.
        """
        if not os.path.exists(self.journal_path):
            return 0
        entries, dropped = durable.load_jsonl_tolerant(self.journal_path)
        if dropped:
            _log.warning(
                "job journal %s: dropped %d unreadable line(s); the "
                "affected transitions are recovered from the cache or "
                "re-run",
                self.journal_path,
                dropped,
            )
        folded: Dict[str, Dict[str, object]] = {}
        order: List[str] = []
        for entry in entries:
            if entry.get("version") != JOB_JOURNAL_VERSION:
                continue
            job_id = entry.get("job")
            state = entry.get("state")
            if not isinstance(job_id, str) or state is None:
                continue
            slot = folded.setdefault(job_id, {})
            if job_id not in order:
                order.append(job_id)
            if "spec" in entry and "spec" not in slot:
                slot["spec"] = entry["spec"]
            slot["state"] = state
            slot["attempts"] = max(
                int(slot.get("attempts", 0) or 0),
                int(entry.get("attempt", 0) or 0),
            )
            if entry.get("error") is not None:
                slot["error"] = entry["error"]
        requeued = 0
        with self._cond:
            for job_id in order:
                slot = folded[job_id]
                if job_id in self._jobs:
                    continue
                if slot.get("state") == STATE_EVICTED:
                    # Tombstone: the payload was garbage-collected.  A
                    # crash between the tombstone and the unlink leaves
                    # the file behind — complete the unlink now; never
                    # resurrect the payload as a completed job.
                    try:
                        os.unlink(self._cache_path(job_id))
                    except OSError:
                        pass
                    spec_data = slot.get("spec")
                    if isinstance(spec_data, dict):
                        try:
                            spec = JobSpec.from_dict(spec_data)
                        except (KeyError, TypeError, ValueError):
                            continue
                        self._jobs[job_id] = JobRecord(
                            job_id=job_id,
                            spec=spec,
                            state=STATE_EVICTED,
                            attempts=int(slot.get("attempts", 0) or 0),
                        )
                    continue
                spec_data = slot.get("spec")
                if not isinstance(spec_data, dict):
                    _log.warning(
                        "job %s: journal lost the spec record; marking "
                        "failed (resubmit to retry)",
                        job_id,
                    )
                    if self._cache_file_ok(job_id):
                        self._jobs[job_id] = JobRecord(
                            job_id=job_id,
                            spec=JobSpec("schedule", "", {}),
                            state=STATE_DONE,
                            cached=True,
                        )
                    continue
                try:
                    spec = JobSpec.from_dict(spec_data)
                except (KeyError, TypeError, ValueError):
                    _log.warning("job %s: unreadable journaled spec", job_id)
                    continue
                record = JobRecord(
                    job_id=job_id,
                    spec=spec,
                    state=str(slot["state"]),
                    attempts=int(slot.get("attempts", 0) or 0),
                    error=slot.get("error"),  # type: ignore[arg-type]
                )
                if record.state in (STATE_QUEUED, STATE_RUNNING):
                    if self._cache_file_ok(job_id):
                        record.state = STATE_DONE
                        record.cached = True
                        self._append_journal(
                            record, STATE_DONE, attempt=record.attempts
                        )
                    else:
                        record.state = STATE_QUEUED
                        self._queue.append(job_id)
                        requeued += 1
                self._jobs[job_id] = record
            if requeued:
                self.metrics.inc("service_jobs_recovered", requeued)
                self.metrics.set_gauge(
                    "service_queue_depth", len(self._queue)
                )
                self._cond.notify_all()
        if requeued:
            _log.info(
                "recovered %d in-flight job(s) from %s",
                requeued,
                self.journal_path,
            )
        return requeued

    def gc(self, max_cache_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used cache payloads down to a byte budget.

        Cache files are ranked by modification time (touched on every
        cache hit, so mtime *is* recency of use) and evicted oldest
        first until the total size fits ``max_cache_bytes``.  Each
        eviction appends a durable ``evicted`` tombstone to the job
        journal *before* the payload is unlinked (fsync-before-unlink),
        so a crash between the two steps is recovered by completing the
        unlink — never by resurrecting the payload as a completed job.
        A later re-submission of an evicted key re-runs the job.

        Returns ``{"evicted": n, "freed_bytes": b, "remaining_bytes": r}``.
        """
        if max_cache_bytes < 0:
            raise ServiceError(
                f"max_cache_bytes must be >= 0, got {max_cache_bytes}"
            )
        evicted = 0
        freed = 0
        with self._cond:
            self._check_open()
            entries: List[Tuple[float, int, str, str]] = []
            total = 0
            for name in os.listdir(self.cache_dir):
                if name.startswith(".") or not name.endswith(".json"):
                    continue  # in-flight temp files are not payloads
                path = os.path.join(self.cache_dir, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                entries.append((info.st_mtime, info.st_size, name[:-5], path))
                total += info.st_size
            entries.sort()
            for _mtime, size, job_id, path in entries:
                if total <= max_cache_bytes:
                    break
                record = self._jobs.get(job_id)
                if record is None:
                    # Payload from a previous store lifetime: synthesize
                    # the tombstone so recovery still sees it.
                    record = JobRecord(
                        job_id=job_id,
                        spec=JobSpec("schedule", "", {}),
                        state=STATE_EVICTED,
                    )
                    self._jobs[job_id] = record
                    self._append_journal(record, STATE_EVICTED, attempt=0)
                    self._publish(record)
                else:
                    record.cached = False
                    self._transition(record, STATE_EVICTED)
                try:
                    os.unlink(path)
                except OSError:
                    pass  # recovery completes the unlink from the tombstone
                total -= size
                freed += size
                evicted += 1
            if evicted:
                self.metrics.inc("service_cache_evictions", evicted)
        return {
            "evicted": evicted,
            "freed_bytes": freed,
            "remaining_bytes": total,
        }

    def close(self) -> None:
        """Stop accepting work and wake blocked workers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("job store is closed")

    def _recall(
        self, digest: Optional[str], fault: Optional[str]
    ) -> Optional[Tuple[JobSpec, str]]:
        """``(spec, key)`` of a memoized request, carrying this ``fault``.

        None unless the digest is memoized and its job's record holds
        the canonical spec (a record restored without its journaled spec
        carries an empty placeholder).
        """
        if digest is None:
            return None
        with self._lock:
            key = self._memo.get(digest)
            record = None if key is None else self._jobs.get(key)
            if key is None or record is None or not record.spec.problem_text:
                return None
            return replace(record.spec, fault=fault), key

    def _remember(self, digest: Optional[str], key: str) -> None:
        """Memoize ``digest -> key`` as most recently used (under the lock).

        Only keyed requests get here: a request whose text or options
        are invalid raises before, on every submission.
        """
        if digest is None:
            return
        self._memo[digest] = key
        self._memo.move_to_end(digest)
        if len(self._memo) > SUBMIT_MEMO_SIZE:
            self._memo.popitem(last=False)

    def _cache_path(self, job_id: str) -> str:
        return os.path.join(self.cache_dir, f"{job_id}.json")

    def _sweep_path(self, job_id: str) -> str:
        return os.path.join(self.sweep_dir, f"{job_id}.jsonl")

    def _cache_file_ok(self, job_id: str) -> bool:
        try:
            return os.path.getsize(self._cache_path(job_id)) > 0
        except OSError:
            return False

    def _committed_bytes(self, job_id: str) -> Optional[bytes]:
        """A committed payload's bytes, or None when there are none.

        Read-only and lock-free: a payload evicted between the check and
        the read reads as None, like one that was never written.
        """
        if not self._cache_file_ok(job_id):
            return None
        try:
            with open(self._cache_path(job_id), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def _touch_cache(self, job_id: str) -> None:
        """Refresh a payload's mtime: the LRU clock of :meth:`gc`."""
        try:
            os.utime(self._cache_path(job_id))
        except OSError:
            pass

    def _append_journal(
        self,
        record: JobRecord,
        state: str,
        *,
        attempt: int,
        spec: Optional[Dict[str, object]] = None,
        error: Optional[str] = None,
        backoff: Optional[float] = None,
    ) -> None:
        """Durably journal one transition (fsync-before-ack)."""
        entry: Dict[str, object] = {
            "version": JOB_JOURNAL_VERSION,
            "job": record.job_id,
            "state": state,
            "attempt": attempt,
            "ts": time.time(),
        }
        if spec is not None:
            entry["spec"] = spec
        if error is not None:
            entry["error"] = error
        if backoff is not None:
            entry["backoff"] = backoff
        line = json.dumps(entry, sort_keys=True) + "\n"
        try:
            durable.append(self.journal_path, line.encode("utf-8"))
        except OSError as exc:
            raise ServiceError(
                f"cannot write job journal {self.journal_path!r}: {exc}"
            ) from exc

    def _transition(
        self, record: JobRecord, state: str, error: Optional[str] = None
    ) -> None:
        """Journal + apply one state change (under the lock)."""
        self._append_journal(
            record, state, attempt=record.attempts, error=error
        )
        record.state = state
        record.error = error
        record.updated = time.time()
        self._cond.notify_all()
        self._publish(record)

    def _publish(self, record: JobRecord) -> None:
        if self.bus is not None:
            event = {"name": "job"}
            event.update(record.as_dict())
            self.bus.publish(event)

    def _write_cache(self, job_id: str, payload: bytes) -> None:
        """Atomically persist the payload bytes."""
        try:
            durable.replace(self._cache_path(job_id), payload)
        except OSError as exc:
            raise ServiceError(
                f"cannot write result cache for job {job_id}: {exc}"
            ) from exc

    def _execute(self, record: JobRecord) -> None:
        """Run one attempt of ``record`` in the calling worker thread."""
        from .runner import RunContext, execute_job

        policy = self.retry_policy
        attempt = record.attempts + 1
        delay = policy.delay_for(min(attempt, policy.max_attempts))
        if attempt > 1 and delay > 0:
            time.sleep(delay)
        with self._cond:
            if record.cancel_event.is_set():
                if not record.terminal:
                    self._transition(record, STATE_CANCELLED)
                return
            record.attempts = attempt
            self._executions += 1
            execution = self._executions
            self._append_journal(record, STATE_RUNNING, attempt=attempt)
            record.state = STATE_RUNNING
            record.updated = time.time()
            self.metrics.set_gauge(
                "service_jobs_running",
                sum(
                    1 for r in self._jobs.values()
                    if r.state == STATE_RUNNING
                ),
            )
        self._publish(record)

        # Spec-level faults are transient (first attempt only) so the
        # retry path converges; plan-level faults fire by execution
        # index, the chaos harness's deterministic clock.
        fault = record.spec.fault if attempt == 1 else None
        if self.fault_plan is not None:
            fault = self.fault_plan.fault_for(execution) or fault
        sweep_path = (
            self._sweep_path(record.job_id)
            if record.spec.kind == "sweep"
            else None
        )
        context = RunContext(
            job_id=record.job_id,
            sweep_journal_path=sweep_path,
            corrupt_target=sweep_path or self.journal_path,
            should_stop=record.cancel_event.is_set,
            fault=fault,
            committed=self._committed_bytes,
            note_reuse=lambda: self.metrics.inc("service_schedules_reused"),
        )

        outcome: Dict[str, object] = {}

        def _attempt() -> None:
            try:
                outcome["payload"] = execute_job(record.spec, context)
            except JobCancelled:
                outcome["cancelled"] = True
            except BaseException as exc:  # noqa: BLE001 - isolate the job
                outcome["error"] = f"{type(exc).__name__}: {exc}"

        started = time.perf_counter()
        thread = threading.Thread(
            target=_attempt, name=f"job-{record.job_id[:12]}", daemon=True
        )
        thread.start()
        thread.join(self.job_timeout)
        if thread.is_alive():
            # Give up on this attempt: ask it to stop at its next
            # cancellation point and discard whatever it produces late.
            record.cancel_event.set()
            self._finish_attempt(
                record,
                attempt,
                error=(
                    f"attempt {attempt} timed out after "
                    f"{self.job_timeout:g} s"
                ),
                timed_out=True,
            )
            return
        elapsed = time.perf_counter() - started
        self.metrics.observe("service_job_seconds", elapsed)
        if "payload" in outcome:
            payload = outcome["payload"]
            assert isinstance(payload, bytes)
            self._write_cache(record.job_id, payload)
            with self._cond:
                self._transition(record, STATE_DONE)
            self.metrics.inc("service_jobs_completed")
            return
        if outcome.get("cancelled") or record.cancel_event.is_set():
            with self._cond:
                self._transition(record, STATE_CANCELLED)
            self.metrics.inc("service_jobs_cancelled")
            return
        self._finish_attempt(
            record, attempt, error=str(outcome.get("error", "unknown failure"))
        )

    def _finish_attempt(
        self,
        record: JobRecord,
        attempt: int,
        *,
        error: str,
        timed_out: bool = False,
    ) -> None:
        """Retry with backoff or fail permanently after a bad attempt."""
        policy = self.retry_policy
        with self._cond:
            if timed_out:
                # The stale attempt thread saw the cancel flag; new
                # attempts need a fresh one.
                record.cancel_event = threading.Event()
            if policy.allows(attempt + 1):
                backoff = policy.delay_for(attempt + 1)
                _log.warning(
                    "job %s attempt %d failed (%s); retrying in %.3gs",
                    record.job_id[:16],
                    attempt,
                    error,
                    backoff,
                )
                self._append_journal(
                    record,
                    STATE_QUEUED,
                    attempt=attempt,
                    error=error,
                    backoff=backoff,
                )
                record.state = STATE_QUEUED
                record.error = error
                record.updated = time.time()
                self._queue.appendleft(record.job_id)
                self.metrics.inc("service_jobs_retried")
                self.metrics.set_gauge(
                    "service_queue_depth", len(self._queue)
                )
                self._cond.notify_all()
            else:
                _log.warning(
                    "job %s failed permanently after %d attempt(s): %s",
                    record.job_id[:16],
                    attempt,
                    error,
                )
                self._transition(record, STATE_FAILED, error=error)
                self.metrics.inc("service_jobs_failed")
        self._publish(record)
