"""Parallel design-space exploration (docs/parallel.md).

The ``repro.parallel`` subsystem evaluates many scheduling candidates
for one problem at once:

* :class:`ExplorationEngine` — fans candidates over a process pool
  (``workers=1`` runs the same sweep loop over an in-process executor),
  prunes candidates with admissible area lower bounds, retries crashed
  or timed-out jobs once, and merges per-worker telemetry into one
  ``repro profile``-compatible summary (:mod:`repro.parallel.engine`);
* :class:`SweepJob` / :class:`JobResult` — the picklable job protocol;
  problems travel as ``.sys`` text, results as plain data, and
  :func:`evaluate` schedules one candidate (:mod:`repro.parallel.jobs`);
* :class:`SweepJournal` — crash-safe JSONL checkpoints; a sweep given a
  ``checkpoint`` path journals every finished candidate durably and can
  resume exactly-once after being killed mid-run
  (:mod:`repro.parallel.checkpoint`).

``repro sweep --workers N`` and ``repro compare --workers N`` are the
CLI front ends; ``repro sweep --resume PATH`` enables checkpointing.
"""

from .._lazy import attach

_EXPORTS = {
    "checkpoint": ["CheckpointError", "SweepJournal", "load_jsonl_tolerant"],
    "engine": [
        "CandidateResult",
        "CompareOutcome",
        "ExplorationEngine",
        "ExplorationError",
        "STATUS_FAILED",
        "STATUS_OK",
        "STATUS_PRUNED",
        "SweepInterrupted",
        "SweepOutcome",
    ],
    "jobs": [
        "FaultPlan",
        "JobResult",
        "JobTimeout",
        "SweepJob",
        "evaluate",
        "inject_fault",
        "parse_fault",
        "run_job",
        "run_jobs",
    ],
    "retry": ["DEFAULT_RETRY_POLICY", "RetryPolicy"],
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
