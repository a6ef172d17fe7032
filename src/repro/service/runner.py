"""Job execution: turn a :class:`JobSpec` into canonical payload bytes.

The runner is the purely functional core of the service: given a spec
(canonical problem text + canonical options) it produces the payload as
canonical JSON bytes — ``sort_keys=True``, compact separators, one
trailing newline — so the bytes are a *function of the cache key*.
That is what makes the content-addressed cache sound: replaying a job,
resuming it after a crash, or running it on a different worker must all
converge to the identical byte string (the chaos harness asserts this,
see tests/service/test_chaos.py).

Determinism rules the payloads obey:

* No wall-clock, PID, attempt, or restored/cached markers — anything
  that varies between runs of the same computation stays out.
* Sweeps run the serial in-process engine (``workers=1``): with
  pruning, candidate statuses depend on evaluation order, and only the
  serial order is deterministic.  Candidate-level progress is journaled
  to the job's sweep journal, so a killed sweep resumes exactly-once
  and the restored + fresh outcomes equal the uninterrupted run's.
* Options are validated against a per-kind whitelist at submit time
  (:func:`validate_options`); result-*affecting* knobs only.  Wall
  deadlines are rejected — a time-based budget degrades schedules
  nondeterministically, which would poison the cache.

Cancellation is cooperative: :func:`execute_job` checks
``context.should_stop`` at job start and between sweep candidates and
raises :class:`~repro.service.jobstore.JobCancelled` — also the
mechanism that keeps a *timed-out* attempt from racing a fresh one on
the same sweep journal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional

from ..errors import SpecificationError
from ..parallel.engine import ExplorationEngine, SweepInterrupted
from ..parallel.jobs import inject_fault, parse_fault
from ..validation.budget import RunBudget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api import Problem
    from ..core.result import SystemSchedule
    from .jobstore import JobSpec

#: Version tag stamped into every payload (bump with CACHE_KEY_FORMAT).
PAYLOAD_FORMAT = "repro-result/1"

#: Result-affecting options each job kind accepts.
KNOWN_OPTIONS: Dict[str, Dict[str, type]] = {
    "schedule": {
        "local": bool,
        "max_iterations": int,
    },
    "sweep": {
        "prune": bool,
        "harmonic": bool,
        "limit": int,
        "max_grid": int,
        "candidate_delay": float,
    },
    "certify": {
        "offset_model": str,
    },
}


def validate_options(kind: str, options: Mapping[str, object]) -> None:
    """Reject unknown or ill-typed options with a ``SPEC``-coded error.

    Keeping the option space closed keeps the cache-key space clean:
    a typo'd option must not silently mint a fresh key for the same
    computation.
    """
    known = KNOWN_OPTIONS.get(kind, {})
    for name, value in options.items():
        if name not in known:
            raise SpecificationError(
                f"unknown {kind} option {name!r}; known: "
                + (", ".join(sorted(known)) or "none")
            )
        expected = known[name]
        if expected is float:
            ok = isinstance(value, (int, float)) and not isinstance(
                value, bool
            )
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected)
        if not ok:
            raise SpecificationError(
                f"{kind} option {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    if kind == "certify":
        model = options.get("offset_model", "deployed")
        if model not in ("deployed", "any"):
            raise SpecificationError(
                f"certify option 'offset_model' must be 'deployed' or "
                f"'any', got {model!r}"
            )


@dataclass
class RunContext:
    """Per-attempt execution environment handed to :func:`execute_job`.

    ``corrupt_target`` is the journal the ``corrupt-journal`` fault
    directive garbles (the job's sweep journal when it has one, else
    the store's job journal); ``should_stop`` is polled at every
    cancellation point.
    """

    job_id: str
    sweep_journal_path: Optional[str] = None
    corrupt_target: Optional[str] = None
    should_stop: Callable[[], bool] = lambda: False
    fault: Optional[str] = None


def payload_bytes(payload: Dict[str, object]) -> bytes:
    """The canonical byte encoding every cached result uses."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        + b"\n"
    )


def execute_job(spec: "JobSpec", context: RunContext) -> bytes:
    """Run one job attempt; returns the canonical payload bytes.

    Raises :class:`~repro.service.jobstore.JobCancelled` when the
    context asks it to stop, and whatever the schedulers raise on
    genuinely broken input (the store records it and retries).
    """
    from .jobstore import JobCancelled

    if context.should_stop():
        raise JobCancelled(context.job_id)
    if context.fault:
        inject_fault(context.fault, journal_path=context.corrupt_target)
    if context.should_stop():
        # A timed-out attempt waking from an injected hang must not
        # touch the sweep journal a fresh attempt now owns.
        raise JobCancelled(context.job_id)
    from ..api import loads_problem

    problem = loads_problem(spec.problem_text)
    options = dict(spec.options)
    validate_options(spec.kind, options)
    if spec.kind == "schedule":
        payload = _run_schedule(problem, options)
    elif spec.kind == "sweep":
        payload = _run_sweep(problem, options, context)
    elif spec.kind == "certify":
        payload = _run_certify(problem, options)
    else:  # pragma: no cover - JobSpec.create already validated
        raise SpecificationError(f"unknown job kind {spec.kind!r}")
    payload["format"] = PAYLOAD_FORMAT
    payload["kind"] = spec.kind
    payload["job"] = context.job_id
    return payload_bytes(payload)


# ----------------------------------------------------------------------
# Kind implementations
# ----------------------------------------------------------------------
def _result_summary(result: "SystemSchedule") -> Dict[str, object]:
    """The deterministic core every schedule-shaped payload reports."""
    from ..core.verify import verify_system_schedule

    starts: Dict[str, Dict[str, int]] = {}
    for (process, block), sched in sorted(result.block_schedules.items()):
        starts[f"{process}/{block}"] = {
            op: int(start) for op, start in sorted(sched.starts.items())
        }
    return {
        "system": result.system.name,
        "area": result.total_area(),
        "iterations": result.iterations,
        "instance_counts": dict(result.instance_counts()),
        "degraded": bool(result.degraded),
        "verified": bool(verify_system_schedule(result).ok),
        "periods": dict(result.periods.as_dict) if result.periods else {},
        "starts": starts,
    }


def _schedule_result(
    problem: "Problem", options: Mapping[str, object]
) -> "SystemSchedule":
    kwargs: Dict[str, object] = {}
    max_iterations = options.get("max_iterations")
    if max_iterations is not None:
        kwargs["budget"] = RunBudget(max_iterations=int(max_iterations))
    if options.get("local"):
        return problem.schedule_local_baseline(**kwargs)
    return problem.schedule(**kwargs)


def _run_schedule(
    problem: "Problem", options: Mapping[str, object]
) -> Dict[str, object]:
    result = _schedule_result(problem, options)
    payload = _result_summary(result)
    payload["local"] = bool(options.get("local", False))
    return payload


def _run_sweep(
    problem: "Problem", options: Mapping[str, object], context: RunContext
) -> Dict[str, object]:
    from ..core.periods import enumerate_period_assignments_capped
    from .jobstore import JobCancelled

    candidates, dropped = enumerate_period_assignments_capped(
        problem.system,
        problem.assignment,
        harmonic=bool(options.get("harmonic", True)),
        max_grid=options.get("max_grid"),
        limit=int(options.get("limit", 10000)),
    )
    delay = float(options.get("candidate_delay", 0.0) or 0.0)
    fault_for = None
    if delay > 0:
        # Chaos-harness knob: widen the per-candidate window a SIGKILL
        # can land in.  Sleeping shifts wall time only — wall time is
        # excluded from payloads — so the bytes stay key-determined.
        directive = f"sleep:{delay:g}"
        parse_fault(directive)
        fault_for = lambda periods: directive  # noqa: E731

    engine = ExplorationEngine(
        problem,
        workers=1,
        prune=bool(options.get("prune", True)),
        checkpoint=context.sweep_journal_path,
        fault_for=fault_for,
        # Polled *before* each candidate is evaluated and journaled: an
        # abandoned attempt must stop at the boundary, not append one
        # more record under a successor's feet.
        stop_when=context.should_stop,
    )

    try:
        outcome = engine.sweep(candidates)
    except SweepInterrupted:
        raise JobCancelled(context.job_id) from None
    if context.should_stop():
        raise JobCancelled(context.job_id)
    records: List[Dict[str, object]] = []
    for record in outcome.results:
        records.append(
            {
                "order": record.order,
                "periods": dict(record.periods),
                "status": record.status,
                "area": record.area,
                "bound": record.bound,
                "iterations": record.iterations,
                "instance_counts": dict(record.instance_counts),
                "error": record.error,
            }
        )
    best = None
    if outcome.best is not None:
        best = {
            "periods": dict(outcome.best.periods),
            "area": outcome.best.area,
        }
    return {
        "system": problem.system.name,
        "candidates": records,
        "best": best,
        "total": len(outcome.results),
        "evaluated": outcome.evaluated,
        "pruned": outcome.pruned,
        "failed": outcome.failed,
        "dropped": dropped,
    }


def _run_certify(
    problem: "Problem", options: Mapping[str, object]
) -> Dict[str, object]:
    from ..analysis.static import certify

    result = _schedule_result(problem, options)
    certificate = certify(
        result, offset_model=str(options.get("offset_model", "deployed"))
    )
    payload = _result_summary(result)
    payload["safe"] = bool(certificate.safe)
    payload["verdict"] = certificate.verdict
    payload["certificate"] = certificate.as_dict()
    return payload
