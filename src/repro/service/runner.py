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
* A sweep payload never holds a ``failed`` candidate: the attempt
  raises at the first one, once it is journaled, so the store retries
  it (the resumed sweep runs the journaled failure again) or ends the
  job ``failed``.  A failure is never cached as the answer for a key.
* Options are validated against a per-kind whitelist at submit time
  (:func:`validate_options`); result-*affecting* knobs only.  Wall
  deadlines are rejected — a time-based budget degrades schedules
  nondeterministically, which would poison the cache.  An option equal
  to its kind's default (:data:`OPTION_DEFAULTS`) is left out, so it
  never mints a second key for the same computation.
* A ``schedule`` with default options and every ``certify`` report the
  same coupled schedule of their problem, so the summary they share is
  read from the first readable committed sibling payload
  (:data:`SCHEDULE_SIBLINGS`) and scheduled only when none is.  The
  summary is a function of the canonical problem, so a key's bytes do
  not depend on which sibling ran first, or whether one did.  A
  ``certify`` job always certifies the schedule rebuilt from the
  summary's ``starts``, fresh or reused alike.

Cancellation is cooperative: :func:`execute_job` checks
``context.should_stop`` at job start and between sweep candidates and
raises :class:`~repro.service.jobstore.JobCancelled` — also the
mechanism that keeps a *timed-out* attempt from racing a fresh one on
the same sweep journal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple, cast

from ..errors import SpecificationError
from ..parallel.engine import (
    STATUS_FAILED,
    ExplorationEngine,
    ExplorationError,
    SweepInterrupted,
)
from ..parallel.jobs import inject_fault, parse_fault
from ..validation.budget import RunBudget
from .cachekey import key_of_canonical

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api import Problem
    from ..core.result import SystemSchedule
    from ..parallel.engine import CandidateResult
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

#: The value each option takes when it is absent.  An option submitted
#: at its default is left out of the key (:func:`normalize_options`).
OPTION_DEFAULTS: Dict[str, Dict[str, object]] = {
    "schedule": {"local": False},
    "sweep": {
        "prune": True,
        "harmonic": True,
        "limit": 10000,
        "candidate_delay": 0.0,
    },
    "certify": {"offset_model": "deployed"},
}

#: What a schedule-shaped payload reports of its schedule
#: (:func:`_result_summary`).
SUMMARY_FIELDS = (
    "system",
    "area",
    "iterations",
    "instance_counts",
    "degraded",
    "verified",
    "periods",
    "starts",
)

#: ``(kind, options)`` of the jobs whose payloads carry the default
#: coupled schedule of their problem: any one of them can supply the
#: summary of the others.
SCHEDULE_SIBLINGS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("schedule", {}),
    ("certify", {}),
    ("certify", {"offset_model": "any"}),
)


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
            ok = (
                isinstance(value, int)
                or (isinstance(value, float) and value.is_integer())
            ) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected)
        if not ok:
            raise SpecificationError(
                f"{kind} option {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    if kind == "certify":
        model = _option("certify", options, "offset_model")
        if model not in ("deployed", "any"):
            raise SpecificationError(
                f"certify option 'offset_model' must be 'deployed' or "
                f"'any', got {model!r}"
            )


def normalize_options(
    kind: str, options: Mapping[str, object]
) -> Dict[str, object]:
    """Validated options in the form the cache key hashes.

    Each value takes its declared type and each option equal to its
    default is left out, so ``{"limit": 6.0}`` keys like
    ``{"limit": 6}`` and ``{"prune": True}`` like ``{}``.
    """
    validate_options(kind, options)
    known = KNOWN_OPTIONS.get(kind, {})
    defaults = OPTION_DEFAULTS.get(kind, {})
    normal: Dict[str, object] = {}
    for name in sorted(options):
        value = known[name](options[name])
        if name not in defaults or value != defaults[name]:
            normal[name] = value
    return normal


def _option(kind: str, options: Mapping[str, object], name: str) -> object:
    """An option's value, its kind's default when absent."""
    return options.get(name, OPTION_DEFAULTS[kind].get(name))


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
    #: Read-only lookup of a committed payload's bytes by cache key;
    #: None when the key has none to read.
    committed: Callable[[str], Optional[bytes]] = lambda key: None
    #: Called when the attempt reuses a sibling's schedule summary.
    note_reuse: Callable[[], None] = lambda: None


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
    options = normalize_options(spec.kind, spec.options)
    if spec.kind == "schedule":
        payload = _schedule_summary(spec, problem, options, context)
        payload["local"] = bool(_option("schedule", options, "local"))
    elif spec.kind == "sweep":
        payload = _run_sweep(problem, options, context)
    elif spec.kind == "certify":
        payload = _schedule_summary(spec, problem, options, context)
        _add_certificate(problem, payload, options)
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
        kwargs["budget"] = RunBudget(max_iterations=cast(int, max_iterations))
    if options.get("local"):
        return problem.schedule_local_baseline(**kwargs)
    return problem.schedule(**kwargs)


def _schedule_summary(
    spec: "JobSpec",
    problem: "Problem",
    options: Mapping[str, object],
    context: RunContext,
) -> Dict[str, object]:
    """The job's schedule summary, scheduled only when no sibling has it.

    Every ``certify`` job and a ``schedule`` job with default options
    run the default coupled schedule, so the first readable committed
    payload of :data:`SCHEDULE_SIBLINGS` already holds their summary.
    """
    if spec.kind == "certify" or not options:
        for kind, sibling_options in SCHEDULE_SIBLINGS:
            raw = context.committed(
                key_of_canonical(kind, spec.problem_text, sibling_options)
            )
            summary = None if raw is None else _summary_of(raw, problem)
            if summary is not None:
                context.note_reuse()
                return summary
    return _result_summary(_schedule_result(problem, options))


def _summary_of(raw: bytes, problem: "Problem") -> Optional[Dict[str, object]]:
    """The schedule summary in a payload's bytes.

    None when the bytes are not a payload of this format, lack a summary
    field, or have ``starts`` that do not cover exactly the operations
    of every block of ``problem``.
    """
    try:
        payload = json.loads(raw)
    except ValueError:
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("format") != PAYLOAD_FORMAT
        or any(name not in payload for name in SUMMARY_FIELDS)
    ):
        return None
    starts = payload["starts"]
    blocks = list(problem.system.iter_blocks())
    if not isinstance(starts, dict) or len(starts) != len(blocks):
        return None
    for process, block in blocks:
        ops = starts.get(f"{process.name}/{block.name}")
        if not isinstance(ops, dict) or set(ops) != set(block.graph.op_ids):
            return None
    return {name: payload[name] for name in SUMMARY_FIELDS}


def _rebuilt_schedule(
    problem: "Problem", summary: Mapping[str, object]
) -> "SystemSchedule":
    """The schedule a summary's ``starts`` describe, over ``problem``."""
    from ..core.result import SystemSchedule
    from ..scheduling.schedule import BlockSchedule

    starts = cast(Mapping[str, Mapping[str, int]], summary["starts"])
    blocks: Dict[Tuple[str, str], BlockSchedule] = {}
    for process, block in problem.system.iter_blocks():
        ops = starts[f"{process.name}/{block.name}"]
        blocks[(process.name, block.name)] = BlockSchedule(
            graph=block.graph,
            library=problem.library,
            starts={op: int(ops[op]) for op in block.graph.op_ids},
            deadline=block.deadline,
        )
    return SystemSchedule(
        system=problem.system,
        library=problem.library,
        assignment=problem.assignment,
        periods=problem.periods,
        block_schedules=blocks,
        iterations=cast(int, summary["iterations"]),
        degraded=bool(summary["degraded"]),
    )


def _run_sweep(
    problem: "Problem", options: Mapping[str, object], context: RunContext
) -> Dict[str, object]:
    from ..core.periods import enumerate_period_assignments_capped
    from .jobstore import JobCancelled

    candidates, dropped = enumerate_period_assignments_capped(
        problem.system,
        problem.assignment,
        harmonic=bool(_option("sweep", options, "harmonic")),
        max_grid=options.get("max_grid"),
        limit=cast(int, _option("sweep", options, "limit")),
    )
    delay = cast(float, _option("sweep", options, "candidate_delay"))
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
        prune=bool(_option("sweep", options, "prune")),
        checkpoint=context.sweep_journal_path,
        fault_for=fault_for,
        # Polled *before* each candidate is evaluated and journaled: an
        # abandoned attempt must stop at the boundary, not append one
        # more record under a successor's feet.
        stop_when=context.should_stop,
    )

    def refuse_failure(record: "CandidateResult") -> None:
        # Stop at the first failure, once it is journaled: every record
        # after it would be pruned against another incumbent than an
        # uninterrupted run's, and the resumed attempt reruns it.
        if record.status == STATUS_FAILED:
            raise ExplorationError(
                f"sweep candidate {record.periods} failed: {record.error}"
            )

    try:
        outcome = engine.sweep(candidates, on_result=refuse_failure)
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


def _add_certificate(
    problem: "Problem",
    payload: Dict[str, object],
    options: Mapping[str, object],
) -> None:
    """Add the certificate of the summary's schedule to ``payload``."""
    from ..analysis.static.certifier import certify

    certificate = certify(
        _rebuilt_schedule(problem, payload),
        offset_model=str(_option("certify", options, "offset_model")),
    )
    payload["safe"] = bool(certificate.safe)
    payload["verdict"] = certificate.verdict
    payload["certificate"] = certificate.as_dict()
