"""Parallel design-space exploration with bound-based pruning.

The :class:`ExplorationEngine` evaluates many scheduling candidates for
one problem — today period assignments from the §4 grid (eqs. 2-3),
structurally anything expressible as a :class:`repro.parallel.jobs.
SweepJob` — and returns every outcome plus a merged telemetry summary.

Two orthogonal accelerations:

* **Parallelism** — candidates fan out over a
  ``ProcessPoolExecutor``; the problem travels as ``.sys`` text, results
  stream back unordered, and per-worker telemetry merges into one
  aggregate (:func:`repro.obs.merge_telemetry`).  Workers trace their
  runs only under an enabled engine tracer.  ``workers=1`` swaps the
  pool for an in-process executor that schedules each candidate on the
  caller's problem and tracer as it is submitted; the sweep loop is
  the same one.
* **Pruning** — each candidate's admissible area lower bound
  (:class:`repro.analysis.bounds.CandidateBounds`, which computes each
  type's bound once per period) is computed up front (no scheduling
  needed); candidates are dispatched cheapest bound first, and a
  candidate whose bound meets or exceeds the best area found so far is
  skipped.  Admissibility makes this sound: a
  skipped candidate can tie the incumbent but never beat it, so the
  best *area* matches the exhaustive sweep exactly.  Skipped and
  failed candidates are always counted and reported — no silent caps.

Failure policy: a candidate that raises, times out, or loses its worker
process is retried once (configurable) and then recorded as a failed
candidate; the rest of the sweep is unaffected, and no candidate is
lost or evaluated twice.  A failed candidate in a checkpoint journal is
not restored: a resumed sweep runs it again.

The winner tie-break is deterministic and documented: among equal-area
schedules, the lexicographically smallest ``sorted(periods.items())``
wins.  With pruning enabled an equal-area (never better) candidate may
be skipped before evaluation; run with pruning disabled when the exact
tie-break over the full space matters.  See docs/parallel.md.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..analysis.bounds import CandidateBounds
from ..core.periods import PeriodAssignment
from ..core.scheduler import ModuloSystemScheduler
from ..errors import ReproError
from ..obs.events import EVENT_CANDIDATE, EVENT_PRUNE
from ..obs.logconfig import get_logger
from ..obs.merge import merge_telemetry
from ..obs.metrics import INCUMBENT_AREA, merge_gauge_summary
from ..obs.tracer import as_tracer
from ..scheduling.forces import area_weights
from . import jobs
from .checkpoint import SweepJournal
from .jobs import JobResult, SweepJob
from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.static.certificate import Certificate
    from ..api import Problem
    from ..core.result import SystemSchedule
    from ..obs.tracer import NullTracer, Tracer

_log = get_logger(__name__)

LexKey = Tuple[Tuple[str, int], ...]

#: Candidate states a sweep can report.
STATUS_OK = "ok"
STATUS_PRUNED = "pruned"
STATUS_FAILED = "failed"


class ExplorationError(ReproError):
    """A mandatory exploration job failed after all retries."""

    code = "SWEEP"


class SweepInterrupted(Exception):
    """A sweep stopped at a candidate boundary via ``stop_when``.

    Control flow, not failure: raised before the next candidate is
    evaluated, or after an evaluation instead of journaling it, so an
    abandoned sweep (a timed-out service attempt, a cancelled job)
    stops appending to the checkpoint journal a successor may own."""


#: The engine's default retry: a failed candidate runs twice, back to back.
_TWO_ATTEMPTS = RetryPolicy(max_attempts=2, base_delay=0.0)


def _lexkey(periods: Dict[str, int]) -> LexKey:
    return tuple(sorted(periods.items()))


def _lost(spec: "_Spec", error: str) -> JobResult:
    """The failed result of a job whose chunk never reported back."""
    return JobResult(job_id=spec.order, ok=False, error=error, attempt=spec.attempt)


class _InlineExecutor(Executor):
    """An executor that runs each call in-process as it is submitted.

    ``workers=1`` sweeps use it in place of a process pool, so the one
    sweep loop sees an already-settled future."""

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - surfaced like a worker's
            future.set_exception(exc)
        return future


def _journal_int(value: object) -> int:
    """A journaled JSON number as an int (missing/odd values → 0)."""
    return int(value) if isinstance(value, (int, float)) else 0


def _journal_float(value: object) -> float:
    """A journaled JSON number as a float (missing/odd values → 0.0)."""
    return float(value) if isinstance(value, (int, float)) else 0.0


@dataclass
class _Spec:
    """Internal dispatch record for one candidate."""

    order: int
    periods: Dict[str, int]
    lexkey: LexKey
    bound: float
    local: bool = False
    attempt: int = 1
    fault: Optional[str] = None


@dataclass
class CandidateResult:
    """Outcome of one candidate of a sweep.

    ``restored`` marks a candidate whose outcome was replayed from a
    sweep checkpoint journal instead of being evaluated in this run.
    """

    order: int
    periods: Dict[str, int]
    bound: float
    status: str
    area: Optional[float] = None
    iterations: int = 0
    wall_time: float = 0.0
    instance_counts: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    attempts: int = 0
    worker_pid: int = 0
    restored: bool = False
    telemetry: Dict[str, object] = field(default_factory=dict, repr=False)

    @property
    def lexkey(self) -> LexKey:
        return _lexkey(self.periods)


@dataclass
class SweepOutcome:
    """Every candidate outcome of a sweep plus the aggregate telemetry.

    ``results`` is in the original candidate order; ``telemetry`` is
    render-compatible with ``repro profile``
    (:func:`repro.obs.render_profile`) and additionally carries the
    engine's own accounting (``candidates_*``, ``workers``,
    ``sweep_wall_time``, ``worker_summaries``).
    """

    results: List[CandidateResult]
    best: Optional[CandidateResult]
    telemetry: Dict[str, object]

    def _count(self, status: str) -> int:
        return sum(1 for record in self.results if record.status == status)

    @property
    def evaluated(self) -> int:
        return self._count(STATUS_OK)

    @property
    def pruned(self) -> int:
        return self._count(STATUS_PRUNED)

    @property
    def failed(self) -> int:
        return self._count(STATUS_FAILED)

    @property
    def best_periods(self) -> Optional[Dict[str, int]]:
        return None if self.best is None else dict(self.best.periods)

    @property
    def best_area(self) -> Optional[float]:
        return None if self.best is None else self.best.area


@dataclass
class CompareOutcome:
    """Global and local runs of one problem, evaluated side by side."""

    global_result: CandidateResult
    local_result: CandidateResult
    telemetry: Dict[str, object]


class ExplorationEngine:
    """Fans scheduling candidates over a worker pool with pruning.

    Args:
        problem: The :class:`repro.api.Problem` whose design space is
            explored.
        workers: Worker process count; 1 (the default) evaluates
            in-process on ``problem`` and ``tracer`` — identical to the
            plain serial sweep.
        prune: Skip candidates whose area lower bound meets or exceeds
            the best area found so far (sound; see module docstring).
        interval_bounds: Strengthen the pruning bound with the
            residue-pressure intervals of :mod:`repro.analysis.absint`
            (the :func:`area_lower_bound` default).  ``False`` falls
            back to the plain averaging bound — kept for A/B
            benchmarks (``benchmarks/bench_absint.py``); both settings
            are admissible, so the best area is identical either way.
        chunk_size: Jobs batched per worker call; raise above 1 when
            single candidates schedule in well under ~50 ms and IPC
            starts to dominate.  At most ``workers`` chunks are in
            flight, so every dispatch sees the incumbent of all
            finished candidates.  Ignored at ``workers=1``, which has no
            worker calls to batch.
        timeout: Per-job wall-clock budget in seconds (enforced via
            ``SIGALRM`` where available).
        retry_policy: The :class:`repro.parallel.retry.RetryPolicy`
            giving a crashed, raised or timed-out candidate its attempts
            and the backoff slept before each re-dispatch.  The default
            runs a candidate at most twice, with no wait.
        checkpoint: Optional path of a JSONL sweep journal
            (:class:`repro.parallel.checkpoint.SweepJournal`).  Every
            finished candidate is durably appended before its result is
            surfaced; if the file already holds records (a previous run
            of the same sweep died), those candidates are skipped
            exactly-once and the incumbent area bound is restored so
            pruning stays sound.  A journaled ``failed`` candidate runs
            again.  See docs/robustness.md.
        tracer: Optional :class:`repro.obs.Tracer`; receives one event
            per candidate and the merged worker counters.  Workers
            trace their runs only when this tracer is enabled.
        fault_for: Test hook — maps a candidate's period dict to a
            fault directive for its job (see
            :mod:`repro.parallel.jobs`), or None.
        stop_when: Optional cooperative-cancellation probe, polled
            before each candidate is evaluated and again before an
            evaluated candidate is journaled; when it returns True the
            sweep raises :class:`SweepInterrupted` and the candidate in
            hand is dropped, never journaled.
    """

    def __init__(
        self,
        problem: "Problem",
        *,
        workers: int = 1,
        prune: bool = True,
        interval_bounds: bool = True,
        chunk_size: int = 1,
        timeout: Optional[float] = None,
        retry_policy: RetryPolicy = _TWO_ATTEMPTS,
        checkpoint: Optional[str] = None,
        tracer: "Optional[Tracer | NullTracer]" = None,
        fault_for: Optional[Callable[[Dict[str, int]], Optional[str]]] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        if workers < 1:
            raise ExplorationError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ExplorationError(f"chunk_size must be >= 1, got {chunk_size}")
        self.problem = problem
        self.workers = workers
        self.prune = prune
        self.interval_bounds = interval_bounds
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.retry_policy = retry_policy
        self.checkpoint = checkpoint
        self.tracer = as_tracer(tracer)
        self.fault_for = fault_for
        self.stop_when = stop_when
        self._journal: Optional[SweepJournal] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def sweep(
        self,
        candidates: Iterable[PeriodAssignment],
        *,
        on_result: Optional[Callable[[CandidateResult], None]] = None,
    ) -> SweepOutcome:
        """Evaluate period-assignment candidates; returns every outcome.

        ``on_result`` is called in the parent process, in completion
        order, once per candidate (evaluated, pruned, or failed) — but
        not for candidates replayed from a checkpoint journal.
        """
        started = time.perf_counter()
        bounds = CandidateBounds(
            self.problem.system,
            self.problem.library,
            self.problem.assignment,
            use_intervals=self.interval_bounds,
        )
        specs: List[_Spec] = []
        for order, candidate in enumerate(candidates):
            periods = dict(candidate.as_dict)
            specs.append(
                _Spec(
                    order=order,
                    periods=periods,
                    lexkey=_lexkey(periods),
                    bound=bounds.area(candidate),
                    fault=self.fault_for(periods) if self.fault_for else None,
                )
            )

        journal: Optional[SweepJournal] = None
        restored: List[CandidateResult] = []
        initial_best: Optional[float] = None
        if self.checkpoint is not None:
            journal = SweepJournal(self.checkpoint)
            journaled = journal.load()
            initial_best = SweepJournal.best_area(journaled)
            fresh: List[_Spec] = []
            for spec in specs:
                entry = journaled.get(spec.lexkey)
                # A journaled failure is never final: it runs again.
                if entry is None or entry["status"] == STATUS_FAILED:
                    fresh.append(spec)
                else:
                    restored.append(self._restored_record(spec, entry))
            specs = fresh
            if restored:
                _log.info(
                    "sweep checkpoint %s: restored %d candidate(s), "
                    "%d left to run",
                    journal.path,
                    len(restored),
                    len(specs),
                )

        if self.prune:
            # Cheapest admissible bound first: good areas surface early,
            # which is what makes the >= skip rule bite.
            specs.sort(key=lambda spec: (spec.bound, spec.lexkey))
        self._journal = journal
        try:
            records = self._run(
                specs, on_result, self.prune, initial_best=initial_best
            )
        finally:
            self._journal = None
        records.extend(restored)
        records.sort(key=lambda record: record.order)
        best = self._best_of(records)
        telemetry = self._aggregate(records, time.perf_counter() - started)
        telemetry["candidates_restored"] = len(restored)
        return SweepOutcome(results=records, best=best, telemetry=telemetry)

    def compare(
        self,
        *,
        on_result: Optional[Callable[[CandidateResult], None]] = None,
    ) -> CompareOutcome:
        """Schedule the global assignment and the all-local baseline.

        Both runs are mandatory, so a failure after retries raises
        :class:`ExplorationError` instead of producing a failed record.
        """
        started = time.perf_counter()
        periods = dict(self.problem.periods.as_dict)
        specs = [
            _Spec(
                order=0,
                periods=periods,
                lexkey=_lexkey(periods),
                bound=0.0,
                fault=self.fault_for(periods) if self.fault_for else None,
            ),
            _Spec(
                order=1,
                periods={},
                lexkey=(),
                bound=0.0,
                local=True,
                fault=self.fault_for({}) if self.fault_for else None,
            ),
        ]
        records = self._run(specs, on_result, prune=False)
        records.sort(key=lambda record: record.order)
        for record in records:
            if record.status != STATUS_OK:
                raise ExplorationError(
                    f"{'local' if record.periods == {} else 'global'} "
                    f"comparison run failed: {record.error}"
                )
        telemetry = self._aggregate(records, time.perf_counter() - started)
        return CompareOutcome(
            global_result=records[0],
            local_result=records[1],
            telemetry=telemetry,
        )

    def certify_best(
        self,
        outcome: SweepOutcome,
        *,
        offset_model: str = "deployed",
        pools: Optional[Dict[str, int]] = None,
    ) -> "Optional[Tuple[SystemSchedule, Certificate]]":
        """Re-schedule the sweep's incumbent best and statically certify it.

        Sweep workers only ship area/instance summaries back (results
        cross process boundaries as records, not schedules), so the
        winning period assignment is re-scheduled in-process — the
        scheduler is deterministic, the candidate was already proven
        schedulable — and handed to :func:`repro.analysis.static.certify`.

        Returns ``(SystemSchedule, Certificate)``, or ``None`` when the
        sweep produced no schedulable candidate.
        """
        if outcome.best is None:
            return None
        from ..analysis.static.certifier import certify

        scheduler = ModuloSystemScheduler(
            self.problem.library,
            weights=area_weights(self.problem.library),
            tracer=self.tracer,
        )
        result = scheduler.schedule(
            self.problem.system,
            self.problem.assignment,
            PeriodAssignment(dict(outcome.best.periods)),
        )
        certificate = certify(
            result,
            pools=pools,
            offset_model=offset_model,
            tracer=self.tracer,
        )
        return result, certificate

    # ------------------------------------------------------------------
    # The sweep loop
    # ------------------------------------------------------------------
    def _run(
        self,
        specs: List[_Spec],
        on_result: Optional[Callable[[CandidateResult], None]],
        prune: bool,
        initial_best: Optional[float] = None,
    ) -> List[CandidateResult]:
        """Evaluate ``specs`` in order over this engine's executor.

        ``workers=1`` runs each candidate in-process as it is submitted;
        otherwise a process pool holds at most ``workers`` chunks in
        flight.  The rules are the same either way: a candidate is
        pruned against the incumbent when it is taken off the queue, a
        failed attempt is requeued at the front (one backoff per batch
        of retries), every record is journaled before it is surfaced,
        and ``stop_when`` is polled before each candidate and before an
        evaluated record is journaled.
        """
        if self.workers == 1:
            start: Callable[[], Executor] = _InlineExecutor
            run_chunk: Callable[[List[SweepJob]], List[JobResult]] = (
                self._run_inline
            )
            text, chunk_size = "", 1
        else:
            from ..api import dumps_problem

            start = partial(ProcessPoolExecutor, max_workers=self.workers)
            run_chunk = jobs.run_jobs
            text, chunk_size = dumps_problem(self.problem), self.chunk_size
        records: List[CandidateResult] = []
        pending = deque(specs)
        inflight: Dict["Future[List[JobResult]]", List[_Spec]] = {}
        best_area = initial_best
        executor = start()
        try:
            while True:
                while pending and len(inflight) < self.workers:
                    chunk: List[_Spec] = []
                    while pending and len(chunk) < chunk_size:
                        spec = pending.popleft()
                        self._check_stop()
                        if prune and best_area is not None and spec.bound >= best_area:
                            records.append(self._pruned_record(spec))
                            self._emit(records[-1], on_result)
                        else:
                            chunk.append(spec)
                    if chunk:
                        batch = [self._job_for(spec, text) for spec in chunk]
                        try:
                            future = executor.submit(run_chunk, batch)
                        except BrokenProcessPool:
                            executor.shutdown(wait=False)
                            executor = start()
                            future = executor.submit(run_chunk, batch)
                        inflight[future] = chunk
                if not inflight:
                    return records
                done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                settled: List[Tuple[_Spec, JobResult]] = []
                broken = False
                for future in done:
                    chunk = inflight.pop(future)
                    error = future.exception()
                    if error is None:
                        settled.extend(zip(chunk, future.result()))
                        continue
                    if isinstance(error, BrokenProcessPool):
                        broken, why = True, f"worker crashed: {error}"
                    else:
                        why = f"{type(error).__name__}: {error}"
                    settled.extend((spec, _lost(spec, why)) for spec in chunk)
                if broken:
                    # A broken pool kills every in-flight job; reclaim
                    # their specs so none are lost, then start fresh.
                    for chunk in inflight.values():
                        settled.extend(
                            (spec, _lost(spec, "worker pool broken"))
                            for spec in chunk
                        )
                    inflight.clear()
                    executor.shutdown(wait=False)
                    executor = start()
                requeue: List[_Spec] = []
                for spec, result in settled:
                    if not result.ok and spec.attempt < self.retry_policy.max_attempts:
                        _log.warning(
                            "candidate %s failed (attempt %d, retrying): %s",
                            spec.periods,
                            spec.attempt,
                            result.error,
                        )
                        requeue.append(replace(spec, attempt=spec.attempt + 1))
                        continue
                    # An attempt abandoned while it evaluated drops its
                    # late record: a successor may already own the journal.
                    self._check_stop()
                    record = self._evaluated_record(spec, result)
                    if record.status == STATUS_OK and (
                        best_area is None or record.area < best_area
                    ):
                        best_area = record.area
                        if self.tracer.enabled:
                            self.tracer.set_gauge(INCUMBENT_AREA, best_area)
                    records.append(record)
                    self._emit(record, on_result)
                if requeue:
                    # Retries go to the front so transient failures
                    # resolve before the sweep moves on.
                    self._backoff(max(spec.attempt for spec in requeue))
                    pending.extendleft(reversed(requeue))
        finally:
            executor.shutdown(wait=False)

    def _run_inline(self, batch: List[SweepJob]) -> List[JobResult]:
        """Evaluate jobs on this engine's problem and tracer."""
        results = [jobs.evaluate(self.problem, job, self.tracer) for job in batch]
        for result in results:
            if result.ok:
                # The shared tracer's snapshots are cumulative; drop
                # them here and overlay its totals once in _aggregate.
                result.telemetry["counters"] = {}
                result.telemetry.pop("gauges", None)
                result.telemetry.pop("histograms", None)
        return results

    def _check_stop(self) -> None:
        if self.stop_when is not None and self.stop_when():
            raise SweepInterrupted("sweep stopped by stop_when")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> None:
        """Sleep the policy's delay before re-running attempt ``attempt``."""
        delay = self.retry_policy.delay_for(attempt)
        if delay > 0:
            time.sleep(delay)

    def _job_for(self, spec: _Spec, text: str) -> SweepJob:
        return SweepJob(
            job_id=spec.order,
            problem_text=text,
            periods=tuple(spec.periods.items()),
            local=spec.local,
            timeout=self.timeout,
            fault=spec.fault,
            attempt=spec.attempt,
            traced=self.tracer.enabled,
        )

    @staticmethod
    def _evaluated_record(spec: _Spec, result: JobResult) -> CandidateResult:
        if not result.ok:
            _log.warning(
                "candidate %s failed permanently after %d attempts: %s",
                spec.periods,
                spec.attempt,
                result.error,
            )
        return CandidateResult(
            order=spec.order,
            periods=dict(spec.periods),
            bound=spec.bound,
            status=STATUS_OK if result.ok else STATUS_FAILED,
            area=result.area,
            iterations=result.iterations,
            wall_time=result.wall_time,
            instance_counts=dict(result.instance_counts),
            error=result.error,
            attempts=spec.attempt,
            worker_pid=result.worker_pid,
            telemetry=dict(result.telemetry),
        )

    def _pruned_record(self, spec: _Spec) -> CandidateResult:
        return CandidateResult(
            order=spec.order,
            periods=dict(spec.periods),
            bound=spec.bound,
            status=STATUS_PRUNED,
        )

    @staticmethod
    def _restored_record(spec: _Spec, entry: Dict[str, object]) -> CandidateResult:
        """Replay a journaled outcome onto this run's candidate spec."""
        area = entry.get("area")
        counts = entry.get("instance_counts")
        error = entry.get("error")
        return CandidateResult(
            order=spec.order,
            periods=dict(spec.periods),
            bound=spec.bound,
            status=str(entry["status"]),
            area=float(area) if isinstance(area, (int, float)) else None,
            iterations=_journal_int(entry.get("iterations")),
            wall_time=_journal_float(entry.get("wall_time")),
            instance_counts={
                str(k): int(v)
                for k, v in (counts if isinstance(counts, dict) else {}).items()
            },
            error=None if error is None else str(error),
            attempts=_journal_int(entry.get("attempts")),
            restored=True,
        )

    def _emit(
        self,
        record: CandidateResult,
        on_result: Optional[Callable[[CandidateResult], None]],
    ) -> None:
        # Journal before surfacing: a crash inside the callback (or
        # anywhere later) must never lose a completed candidate.
        if self._journal is not None:
            self._journal.append(record)
        if self.tracer.enabled:
            if record.status == STATUS_PRUNED:
                self.tracer.event(
                    EVENT_PRUNE,
                    periods=dict(record.periods),
                    bound=record.bound,
                )
            self.tracer.event(
                EVENT_CANDIDATE,
                periods=dict(record.periods),
                status=record.status,
                area=record.area,
                bound=record.bound,
            )
        if on_result is not None:
            on_result(record)

    @staticmethod
    def _best_of(
        records: List[CandidateResult],
    ) -> Optional[CandidateResult]:
        """Deterministic winner: smallest area, then smallest lexkey."""
        best: Optional[CandidateResult] = None
        for record in records:
            if record.status != STATUS_OK:
                continue
            if (
                best is None
                or record.area < best.area
                or (record.area == best.area and record.lexkey < best.lexkey)
            ):
                best = record
        return best

    def _aggregate(
        self, records: List[CandidateResult], elapsed: float
    ) -> Dict[str, object]:
        telemetry = merge_telemetry(
            record.telemetry for record in records if record.telemetry
        )
        if self.workers <= 1 and self.tracer.enabled:
            # Serial runs share the engine tracer; its summary already
            # holds the sweep-total counts, volumes and instruments.
            shared = self.tracer.summary()
            del shared["phase_times"]
            telemetry.update(shared)
        elif self.workers > 1 and self.tracer.enabled:
            # Mirror the merged worker instruments into the engine tracer
            # so its registry reflects the whole sweep.
            for name, value in telemetry["counters"].items():
                self.tracer.counters.inc(name, value)
            registry = self.tracer.metrics
            for name, summary in (telemetry.get("histograms") or {}).items():
                registry.histogram(name).merge_summary(summary)
            engine_gauges = registry.gauges_dict()
            if engine_gauges:
                merged_gauges = telemetry.setdefault("gauges", {})
                for name, summary in engine_gauges.items():
                    if name in merged_gauges:
                        merge_gauge_summary(merged_gauges[name], summary)
                    else:
                        merged_gauges[name] = summary
        worker_jobs: Dict[int, int] = {}
        worker_wall: Dict[int, float] = {}
        for record in records:
            if record.status != STATUS_OK or not record.worker_pid:
                continue
            pid = record.worker_pid
            worker_jobs[pid] = worker_jobs.get(pid, 0) + 1
            worker_wall[pid] = worker_wall.get(pid, 0.0) + record.wall_time
        workers_seen: Dict[int, Dict[str, object]] = {
            pid: {"jobs": worker_jobs[pid], "wall_time": worker_wall[pid]}
            for pid in worker_jobs
        }
        telemetry.update(
            {
                "sweep_wall_time": elapsed,
                "workers": self.workers,
                "candidates_total": len(records),
                "candidates_evaluated": sum(
                    1 for r in records if r.status == STATUS_OK
                ),
                "candidates_pruned": sum(
                    1 for r in records if r.status == STATUS_PRUNED
                ),
                "candidates_failed": sum(
                    1 for r in records if r.status == STATUS_FAILED
                ),
                "worker_summaries": workers_seen,
            }
        )
        return telemetry
