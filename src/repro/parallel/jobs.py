"""Picklable job specifications and the worker entry point.

A :class:`SweepJob` is pure data: the scheduling problem round-tripped
through the ``.sys`` text format (:mod:`repro.ir.systemio`), the period
candidate to evaluate, and the execution policy (timeout, attempt
number, optional fault injection).  Workers reconstruct the live
:class:`repro.api.Problem` from the text — parsed once per worker and
memoized — so nothing crosses the process boundary except strings,
numbers, and plain containers.

:func:`run_jobs` is the function a :class:`concurrent.futures.
ProcessPoolExecutor` executes: it runs a chunk of jobs back to back and
returns one :class:`JobResult` per job.  Failures never propagate as
exceptions — a job that raises (or exceeds its timeout) yields a result
record with ``ok=False`` and the error text, so one bad candidate cannot
abort a sweep.  Per-job timeouts are enforced with ``SIGALRM`` where the
platform provides it (Unix main threads); elsewhere the timeout is
recorded but not enforced.

The ``fault`` field deliberately injects failures so the engine's (and
the scheduling service's) retry, timeout, and crash-recovery paths stay
testable without contriving a workload that crashes the scheduler.  The
directive grammar is ``KIND[:ARG]``:

===================== =================================================
directive             effect at the injection point
===================== =================================================
``raise[:MSG]``       raise ``RuntimeError(MSG)`` (default message
                      ``"injected fault"``)
``sleep:SECONDS``     stall for ``SECONDS`` in one blocking sleep
``hang:SECONDS``      stall for ``SECONDS`` in short slices — a stuck
                      job that keeps "running" until a deadline or
                      watchdog gives up on it
``exit:CODE``         ``os._exit(CODE)`` — kill the hosting process
                      without cleanup, simulating a hard worker crash
``corrupt-journal``   append an unreadable garbage line to the journal
                      in scope (no-op when none is), exercising the
                      torn-record tolerance of
                      :meth:`repro.parallel.checkpoint.SweepJournal.load`
===================== =================================================

An unknown directive is rejected with a stable ``SPEC``-coded
:class:`repro.errors.SpecificationError` at parse time — never silently
ignored — so a typo in a chaos-test plan fails the test instead of
quietly testing nothing.  :class:`FaultPlan` schedules one directive
onto the Nth unit of work of a run (see the scheduling service's
fault-injection harness, docs/service.md).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from .. import durable
from ..core.periods import PeriodAssignment
from ..core.scheduler import ModuloSystemScheduler
from ..errors import SpecificationError
from ..obs.metrics import CANDIDATE_SECONDS
from ..obs.tracer import Tracer
from ..resources.assignment import ResourceAssignment
from ..scheduling.forces import area_weights

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from types import FrameType

    from ..api import Problem


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its time budget."""


@dataclass(frozen=True)
class SweepJob:
    """One schedulable unit of a design-space exploration, as plain data.

    Attributes:
        job_id: Caller-chosen identity, echoed on the result record.
        problem_text: The problem in ``.sys`` form
            (:func:`repro.api.dumps_problem`).
        periods: Candidate period assignment as ``(type, period)`` pairs
            in the candidate's own order; ignored for local jobs.
        local: Schedule the traditional all-local baseline instead of
            the global assignment (used by ``repro compare``).
        timeout: Per-job wall-clock budget in seconds (None = unlimited).
        fault: Optional fault-injection directive (see the module
            docstring table) for exercising failure handling.
        attempt: 1 for the first try, incremented by the engine's retry.
        traced: Trace the run and ship its counters and histograms back
            (the engine sets it when its own tracer is enabled); an
            untraced job returns empty counters and no histograms.
    """

    job_id: int
    problem_text: str
    periods: Tuple[Tuple[str, int], ...] = ()
    local: bool = False
    timeout: Optional[float] = None
    fault: Optional[str] = None
    attempt: int = 1
    traced: bool = False


@dataclass
class JobResult:
    """Outcome of one job, shipped back from the worker as plain data."""

    job_id: int
    ok: bool
    area: Optional[float] = None
    iterations: int = 0
    wall_time: float = 0.0
    instance_counts: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    #: Telemetry summary of the run (the ``SystemSchedule.telemetry``
    #: shape), mergeable via :func:`repro.obs.merge_telemetry`.
    telemetry: Dict[str, object] = field(default_factory=dict)
    worker_pid: int = 0
    attempt: int = 1


#: Per-worker memo of the last parsed problem text.  Sweeps ship the
#: same problem to every job, so one slot removes all repeated parsing
#: without growing with the number of distinct problems seen.
_problem_cache: List[Tuple[str, object]] = []


def _problem_for(text: str) -> "Problem":
    from ..api import loads_problem

    if _problem_cache and _problem_cache[0][0] == text:
        return _problem_cache[0][1]  # type: ignore[return-value]
    problem = loads_problem(text)
    _problem_cache[:] = [(text, problem)]
    return problem


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`JobTimeout` after ``seconds`` of wall time.

    Uses ``SIGALRM``; silently unenforced when the platform has no
    alarm signal or when not running in the main thread (signal
    handlers can only be installed there).
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum: int, frame: "Optional[FrameType]") -> None:
        raise JobTimeout(f"job timed out after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: Known fault directive kinds (the table in the module docstring).
FAULT_KINDS = ("raise", "sleep", "hang", "exit", "corrupt-journal")

#: How long one slice of a ``hang:`` stall sleeps; short enough that a
#: surrounding ``SIGALRM`` deadline or watchdog observes the hang fast.
_HANG_SLICE_SECONDS = 0.05

#: The garbage ``corrupt-journal`` appends: its own line (trailing
#: newline, so durable neighbours stay parseable) of invalid UTF-8 that
#: no JSONL reader can mistake for a record.
_JOURNAL_GARBAGE = b'\x00\xfe\xff{"corrupt-journal": torn \x80\n'


def parse_fault(fault: str) -> Tuple[str, str]:
    """Split and validate a fault directive into ``(kind, arg)``.

    Unknown kinds and malformed arguments raise a ``SPEC``-coded
    :class:`~repro.errors.SpecificationError` — a directive is either
    valid or an error, never a silent no-op.
    """
    kind, _, arg = fault.partition(":")
    if kind not in FAULT_KINDS:
        raise SpecificationError(
            f"unknown fault directive {fault!r}; known kinds: "
            f"{', '.join(FAULT_KINDS)}"
        )
    if kind in ("sleep", "hang"):
        try:
            seconds = float(arg) if arg else 1.0
        except ValueError:
            raise SpecificationError(
                f"fault directive {fault!r}: {kind} needs a number of "
                f"seconds, got {arg!r}"
            ) from None
        if seconds < 0:
            raise SpecificationError(
                f"fault directive {fault!r}: seconds must be >= 0"
            )
    elif kind == "exit":
        try:
            int(arg) if arg else 1
        except ValueError:
            raise SpecificationError(
                f"fault directive {fault!r}: exit needs an integer "
                f"status code, got {arg!r}"
            ) from None
    elif kind == "corrupt-journal" and arg:
        raise SpecificationError(
            f"fault directive {fault!r}: corrupt-journal takes no argument"
        )
    return kind, arg


def inject_fault(
    fault: Optional[str], *, journal_path: Optional[str] = None
) -> None:
    """Apply a fault-injection directive (no-op for ``None``).

    ``journal_path`` is the journal in scope at the injection point (a
    sweep checkpoint or job journal); only ``corrupt-journal`` uses it,
    appending one unreadable garbage line so the crash-tolerant loader
    is exercised.  Without a journal in scope ``corrupt-journal``
    degrades to a no-op — there is nothing to corrupt.
    """
    if fault is None:
        return
    kind, arg = parse_fault(fault)
    if kind == "raise":
        raise RuntimeError(arg or "injected fault")
    if kind == "sleep":
        time.sleep(float(arg) if arg else 1.0)
        return
    if kind == "hang":
        deadline = time.monotonic() + (float(arg) if arg else 1.0)
        while time.monotonic() < deadline:
            time.sleep(
                min(_HANG_SLICE_SECONDS, max(0.0, deadline - time.monotonic()))
            )
        return
    if kind == "exit":
        os._exit(int(arg) if arg else 1)
    if kind == "corrupt-journal":
        if journal_path is not None:
            durable.append(journal_path, _JOURNAL_GARBAGE)
        return


@dataclass(frozen=True)
class FaultPlan:
    """A fault directive aimed at specific units of work of a run.

    The plan fires ``directive`` on the ``target``-th through
    ``target + count - 1``-th unit (1-based) of whatever sequence the
    consumer counts — the scheduling service counts job *attempt
    starts* across the server's lifetime, so ``exit:1@1`` kills the
    server during the first attempt and a restarted server (counting
    from 1 again, but normally started without the plan) resumes clean.

    The string form is ``DIRECTIVE@N`` or ``DIRECTIVE@NxC``
    (``hang:5@2``, ``exit:1@3x2``); a plain ``DIRECTIVE`` targets the
    first unit.
    """

    directive: str
    target: int = 1
    count: int = 1

    def __post_init__(self) -> None:
        parse_fault(self.directive)  # reject unknown directives eagerly
        if self.target < 1:
            raise SpecificationError(
                f"fault plan target must be >= 1, got {self.target}"
            )
        if self.count < 1:
            raise SpecificationError(
                f"fault plan count must be >= 1, got {self.count}"
            )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``DIRECTIVE[@N[xC]]`` into a plan."""
        directive, _, where = spec.partition("@")
        target, count = 1, 1
        if where:
            head, _, tail = where.partition("x")
            try:
                target = int(head)
                if tail:
                    count = int(tail)
            except ValueError:
                raise SpecificationError(
                    f"fault plan {spec!r}: expected DIRECTIVE[@N[xC]]"
                ) from None
        return cls(directive=directive, target=target, count=count)

    def spec(self) -> str:
        """The string form :meth:`parse` accepts (round-trips)."""
        text = f"{self.directive}@{self.target}"
        if self.count != 1:
            text += f"x{self.count}"
        return text

    def fault_for(self, index: int) -> Optional[str]:
        """The directive for the ``index``-th unit (1-based), or None."""
        if self.target <= index < self.target + self.count:
            return self.directive
        return None


def run_job(job: SweepJob) -> JobResult:
    """Execute one job; always returns a record, never raises."""
    started = time.perf_counter()
    try:
        with _deadline(job.timeout):
            inject_fault(job.fault)
            problem = _problem_for(job.problem_text)
            tracer = Tracer() if job.traced else None
            scheduler = ModuloSystemScheduler(
                problem.library,
                weights=area_weights(problem.library),
                tracer=tracer,
            )
            if job.local:
                result = scheduler.schedule(
                    problem.system,
                    ResourceAssignment.all_local(problem.library),
                )
            else:
                result = scheduler.schedule(
                    problem.system,
                    problem.assignment,
                    PeriodAssignment(dict(job.periods)),
                )
        wall = time.perf_counter() - started
        telemetry = dict(result.telemetry)
        if tracer is not None:
            # The candidate's end-to-end latency joins the run's
            # histograms so the sweep-level merge can report
            # per-candidate quantiles.
            tracer.observe(CANDIDATE_SECONDS, wall)
            telemetry["histograms"] = tracer.metrics.histograms_dict()
        return JobResult(
            job_id=job.job_id,
            ok=True,
            area=result.total_area(),
            iterations=result.iterations,
            wall_time=wall,
            instance_counts=result.instance_counts(),
            telemetry=telemetry,
            worker_pid=os.getpid(),
            attempt=job.attempt,
        )
    except JobTimeout as exc:
        return _failure(job, str(exc), started)
    except Exception as exc:  # noqa: BLE001 - isolate any candidate failure
        return _failure(job, f"{type(exc).__name__}: {exc}", started)


def _failure(job: SweepJob, error: str, started: float) -> JobResult:
    return JobResult(
        job_id=job.job_id,
        ok=False,
        error=error,
        wall_time=time.perf_counter() - started,
        worker_pid=os.getpid(),
        attempt=job.attempt,
    )


def run_jobs(jobs: List[SweepJob]) -> List[JobResult]:
    """Worker entry point: run a chunk of jobs, one record each."""
    return [run_job(job) for job in jobs]
