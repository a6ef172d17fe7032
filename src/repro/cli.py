"""Command-line interface for the modulo scheduling system.

Usage (after ``pip install -e .``)::

    python -m repro schedule system.sys            # global modulo scheduling
    python -m repro schedule system.sys --local    # traditional baseline
    python -m repro schedule system.sys --profile  # + phase/counter table
    python -m repro schedule system.sys --trace t.jsonl   # JSONL trace
    python -m repro profile system.sys             # profiling front and center
    python -m repro compare system.sys             # both + area comparison
    python -m repro simulate system.sys --cycles 5000 --seed 3
    python -m repro sweep system.sys               # period enumeration (S2)
    python -m repro sweep system.sys --live        # stream candidate progress
    python -m repro sweep system.sys --resume ck.jsonl  # crash-safe sweep
    python -m repro check system.sys               # preflight diagnostics
    python -m repro lint system.sys                # IR lint (LINT* codes)
    python -m repro certify system.sys             # static safety proof
    python -m repro certify system.sys --offset-model any
    python -m repro analyze system.sys             # residue-pressure intervals
    python -m repro analyze system.sys --mode problem --format json
    python -m repro explain system.sys             # bottleneck attribution
    python -m repro report system.sys -o run.md    # self-contained run report
    python -m repro info system.sys                # problem statistics
    python -m repro serve --state dir              # scheduling job server
    python -m repro schedule system.sys --server 127.0.0.1:7070
    python -m repro jobs --server 127.0.0.1:7070 --watch

``-v``/``-vv`` raise the ``repro.*`` log level (INFO/DEBUG on stderr);
``-q`` silences everything below ERROR.  User-facing results always go
to stdout.  The ``.sys`` input format is documented in
:mod:`repro.ir.systemio`.

Exit codes (docs/robustness.md): 0 success, 1 "ran but found nothing
usable" (no candidate schedules, verification/simulation violations,
diagnostic warnings), 2 errors.  Errors print one ``error [CODE]:``
line on stderr; the full traceback appears only under ``-v``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import traceback
from typing import TYPE_CHECKING, Dict, List, Optional

from .errors import ReproError
from .obs.logconfig import configure_logging, get_logger

# Each command imports the modules it runs, so ``--help``, ``check`` or
# ``serve`` never load numpy or the scheduler (docs/performance.md).
if TYPE_CHECKING:
    from .obs.audit import AuditTrail
    from .obs.tracer import Tracer
    from .parallel.engine import CandidateResult
    from .parallel.jobs import FaultPlan
    from .validation.budget import RunBudget

_log = get_logger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Time constrained modulo scheduling with global resource sharing",
    )
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log repro.* at INFO (-v) or DEBUG (-vv) on stderr",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true", help="only log errors"
    )
    observe = argparse.ArgumentParser(add_help=False)
    observe.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSONL trace (spans + per-iteration events) to FILE",
    )
    observe.add_argument(
        "--profile",
        action="store_true",
        help="print a phase-timing and counter table after the run",
    )
    audit = argparse.ArgumentParser(add_help=False)
    audit.add_argument(
        "--audit",
        metavar="FILE",
        help="record every reduction decision (candidates, forces, "
        "time-frame deltas, cache classification) and write the trail "
        "as JSONL to FILE",
    )
    audit.add_argument(
        "--audit-capacity",
        type=int,
        default=None,
        metavar="N",
        help="ring-buffer capacity of the audit trail; older decisions "
        "are dropped beyond it (default 16384)",
    )
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; 1 (default) runs in-process "
        "(see docs/parallel.md)",
    )
    server = argparse.ArgumentParser(add_help=False)
    server.add_argument(
        "--server",
        metavar="ADDR",
        default=None,
        help="run this command as a thin client of a `repro serve` "
        "daemon at ADDR (HOST:PORT or a unix-socket path); results "
        "come from its content-addressed cache (see docs/service.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    schedule = sub.add_parser(
        "schedule",
        help="schedule a .sys problem",
        parents=[verbosity, observe, audit, server],
    )
    schedule.add_argument("file", help="path to a .sys problem file")
    schedule.add_argument(
        "--local", action="store_true", help="ignore global scopes (baseline)"
    )
    schedule.add_argument(
        "--table", action="store_true", help="print the full Table-1 report"
    )
    schedule.add_argument(
        "--no-verify", action="store_true", help="skip static verification"
    )
    schedule.add_argument(
        "--no-check",
        action="store_true",
        help="skip the preflight diagnostics pass",
    )
    schedule.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        metavar="N",
        help="scheduler iteration budget; exhausting it degrades to the "
        "list-scheduling fallback instead of running on",
    )
    schedule.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="scheduler wall-clock budget; exceeding it degrades to the "
        "list-scheduling fallback",
    )

    compare = sub.add_parser(
        "compare",
        help="global vs local comparison",
        parents=[verbosity, observe, workers],
    )
    compare.add_argument("file")

    simulate = sub.add_parser(
        "simulate", help="randomized reactive simulation", parents=[verbosity]
    )
    simulate.add_argument("file")
    simulate.add_argument("--cycles", type=int, default=5000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--trigger", type=float, default=0.25)
    simulate.add_argument(
        "--trials",
        type=int,
        default=1,
        metavar="N",
        help="run N simulations with seeds seed..seed+N-1 and report "
        "the first failing seed (default %(default)s)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="enumerate period assignments (step S2)",
        parents=[verbosity, observe, workers, server],
    )
    sweep.add_argument("file")
    sweep.add_argument(
        "--limit",
        type=int,
        default=200,
        help="cap on enumerated candidates; exceeding it truncates the "
        "sweep with a warning (default %(default)s)",
    )
    sweep.add_argument(
        "--no-prune",
        action="store_true",
        help="evaluate every candidate instead of skipping those whose "
        "area lower bound meets the best area found so far",
    )
    sweep.add_argument(
        "--chunk-size",
        type=int,
        default=1,
        metavar="N",
        help="candidates batched per worker call (default %(default)s)",
    )
    sweep.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-candidate wall-clock budget; a candidate exceeding it "
        "is retried once, then reported as failed",
    )
    sweep.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="JSONL checkpoint journal; finished candidates found in it "
        "are restored instead of re-evaluated, new results are appended "
        "durably so a killed sweep can resume exactly-once",
    )
    sweep.add_argument(
        "--no-check",
        action="store_true",
        help="skip the preflight diagnostics pass",
    )
    sweep.add_argument(
        "--certify",
        action="store_true",
        help="statically certify the incumbent best after the sweep "
        "(exit 1 when the proof fails)",
    )
    sweep.add_argument(
        "--live",
        action="store_true",
        help="stream one progress line per candidate (evaluated or "
        "pruned) to stderr as the engine's events arrive",
    )

    check = sub.add_parser(
        "check",
        help="preflight diagnostics without scheduling",
        parents=[verbosity],
    )
    check.add_argument("file", help="path to a .sys problem file")
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default %(default)s)",
    )

    lint = sub.add_parser(
        "lint",
        help="rule-driven IR lint (LINT* codes; see docs/static-analysis.md)",
        parents=[verbosity],
    )
    lint.add_argument(
        "paths",
        nargs="+",
        help=".sys files or directories (directories lint every *.sys)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default %(default)s)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="NAME",
        default=None,
        help="run only the named rule (repeatable); default: all rules",
    )

    certify = sub.add_parser(
        "certify",
        help="prove pool safety over all admissible offsets",
        parents=[verbosity, observe, server],
    )
    certify.add_argument("file", help="path to a .sys problem file")
    certify.add_argument(
        "--offset-model",
        choices=("deployed", "any"),
        default="deployed",
        help="offset space to prove: the configured deployment or every "
        "grid-aligned offset assignment (default %(default)s)",
    )
    certify.add_argument(
        "--pool",
        action="append",
        metavar="TYPE=N",
        default=None,
        help="certify against a fixed pool allocation instead of the "
        "derived one (repeatable)",
    )
    certify.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the certificate JSON to FILE",
    )
    certify.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (default %(default)s)",
    )
    certify.add_argument(
        "--recheck",
        action="store_true",
        help="re-verify the certificate with the independent checker",
    )

    analyze = sub.add_parser(
        "analyze",
        help="residue-pressure intervals and bottleneck cone "
        "(see docs/analysis.md)",
        parents=[verbosity, observe],
    )
    analyze.add_argument("file", help="path to a .sys problem file")
    analyze.add_argument(
        "--mode",
        choices=("problem", "schedule"),
        default="schedule",
        help="'problem' bounds every grid-admissible schedule without "
        "scheduling; 'schedule' folds one produced schedule exactly and "
        "extracts its bottleneck cone (default %(default)s)",
    )
    analyze.add_argument(
        "--offset-model",
        choices=("deployed", "any"),
        default="deployed",
        help="rotation space to join over (default %(default)s)",
    )
    analyze.add_argument(
        "--pool",
        action="append",
        metavar="TYPE=N",
        default=None,
        help="compare the intervals against a fixed pool allocation "
        "(repeatable)",
    )
    analyze.add_argument(
        "--type",
        dest="type_name",
        metavar="NAME",
        default=None,
        help="extract the bottleneck cone of this type (default: the "
        "type with the least interval slack)",
    )
    analyze.add_argument(
        "--no-cone",
        action="store_true",
        help="skip the bottleneck-cone extraction (schedule mode only)",
    )
    analyze.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the analysis JSON to FILE",
    )
    analyze.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (default %(default)s)",
    )

    profile = sub.add_parser(
        "profile",
        help="schedule with full instrumentation and report the profile",
        parents=[verbosity],
    )
    profile.add_argument("file")
    profile.add_argument(
        "--local", action="store_true", help="profile the all-local baseline"
    )
    profile.add_argument(
        "--trace", metavar="FILE", help="also write the JSONL trace to FILE"
    )
    profile.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format; json emits the full telemetry summary "
        "(counters, gauges, histograms, phase times) (default %(default)s)",
    )

    explain = sub.add_parser(
        "explain",
        help="schedule and attribute the area to its bottlenecks",
        parents=[verbosity, audit],
    )
    explain.add_argument("file", help="path to a .sys problem file")
    explain.add_argument(
        "--format",
        choices=("text", "json", "markdown"),
        default="text",
        help="output format (default %(default)s)",
    )

    report = sub.add_parser(
        "report",
        help="schedule with full instrumentation and emit a run report",
        parents=[verbosity, audit],
    )
    report.add_argument("file", help="path to a .sys problem file")
    report.add_argument(
        "-o", "--output", help="write the report here (default stdout)"
    )
    report.add_argument(
        "--format",
        choices=("markdown", "json"),
        default="markdown",
        help="report format (default %(default)s)",
    )

    info = sub.add_parser(
        "info", help="print problem statistics", parents=[verbosity]
    )
    info.add_argument("file")

    rtl = sub.add_parser(
        "rtl",
        help="schedule, bind, and emit Verilog text",
        parents=[verbosity],
    )
    rtl.add_argument("file")
    rtl.add_argument("-o", "--output", help="write HDL to this path (default stdout)")

    gantt = sub.add_parser(
        "gantt",
        help="schedule and print ASCII Gantt charts",
        parents=[verbosity],
    )
    gantt.add_argument("file")

    export = sub.add_parser(
        "export",
        help="schedule and emit the result as JSON",
        parents=[verbosity],
    )
    export.add_argument("file")
    export.add_argument("-o", "--output", help="write JSON here (default stdout)")

    serve = sub.add_parser(
        "serve",
        help="run the crash-safe scheduling job server (docs/service.md)",
        parents=[verbosity],
    )
    serve.add_argument(
        "--state",
        required=True,
        metavar="DIR",
        help="state directory: job journal, result cache, sweep journals",
    )
    serve.add_argument(
        "--address",
        default="127.0.0.1:7070",
        metavar="ADDR",
        help="HOST:PORT (port 0 picks a free port) or a unix-socket "
        "path (default %(default)s)",
    )
    serve.add_argument(
        "--serve-workers",
        type=int,
        default=1,
        metavar="N",
        help="worker threads draining the job queue (default %(default)s)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="max queued jobs before submissions get 429 "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock budget; timed-out attempts retry "
        "under the backoff policy",
    )
    serve.add_argument(
        "--inject-fault",
        metavar="SPEC",
        default=None,
        help="chaos harness: fire a fault on the Nth job attempt, "
        "e.g. 'exit:7@2' or 'hang:5@1x2' (DIRECTIVE[@N[xC]]; "
        "see repro.parallel.jobs)",
    )

    jobs = sub.add_parser(
        "jobs",
        help="list or watch the jobs of a running `repro serve` daemon, "
        "or garbage-collect an offline store's result cache",
        parents=[verbosity],
    )
    jobs.add_argument(
        "--server",
        metavar="ADDR",
        default=None,
        help="the daemon's address (HOST:PORT or unix-socket path); "
        "required unless --gc operates on a local state directory",
    )
    jobs.add_argument(
        "--gc",
        action="store_true",
        help="evict least-recently-used result-cache payloads of a "
        "local --state-dir down to --max-cache-bytes (tombstoned in "
        "the job journal; recovery never resurrects them)",
    )
    jobs.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="the store's state directory (for --gc)",
    )
    jobs.add_argument(
        "--max-cache-bytes",
        type=int,
        default=None,
        metavar="N",
        help="cache byte budget for --gc; oldest payloads are evicted "
        "until the cache fits",
    )
    jobs.add_argument(
        "--watch",
        action="store_true",
        help="keep polling and print every job state change until "
        "interrupted (or until all jobs are terminal)",
    )
    jobs.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="poll interval for --watch (default %(default)s)",
    )
    jobs.add_argument(
        "--metrics",
        action="store_true",
        help="print the daemon's Prometheus metrics instead of the "
        "job table",
    )
    return parser


def _tracer_for(args: argparse.Namespace) -> Optional[Tracer]:
    """A live tracer when ``--trace``/``--profile`` ask for one, else None."""
    from .obs.tracer import Tracer

    if getattr(args, "trace", None) or getattr(args, "profile", False):
        return Tracer()
    return None


def _finish_trace(args: argparse.Namespace, tracer: Optional[Tracer]) -> None:
    """Write the JSONL trace file if ``--trace`` was given."""
    if tracer is not None and getattr(args, "trace", None):
        written = tracer.write_jsonl(args.trace)
        print(f"wrote {args.trace}: {written} trace records")


def _audit_for(
    args: argparse.Namespace, *, always: bool = False
) -> Optional[AuditTrail]:
    """An :class:`AuditTrail` when ``--audit`` asks for one.

    ``always`` forces a trail even without the flag (``explain`` and
    ``report`` enrich their output with it regardless).
    """
    from .obs.audit import AuditTrail

    if not always and not getattr(args, "audit", None):
        return None
    capacity = getattr(args, "audit_capacity", None)
    return AuditTrail(capacity) if capacity else AuditTrail()


def _finish_audit(
    args: argparse.Namespace, audit: Optional[AuditTrail]
) -> None:
    """Write the audit JSONL file if ``--audit`` was given."""
    if audit is not None and getattr(args, "audit", None):
        written = audit.write_jsonl(args.audit)
        print(f"wrote {args.audit}: {written} audit records")


def _live_progress(tracer: Tracer, total: int) -> None:
    """Subscribe a per-candidate progress line to the tracer's bus.

    The engine publishes one ``candidate`` event per finished candidate
    (and a ``prune`` event before it for skipped ones); rendering them
    as they arrive is what makes ``repro sweep --live`` a progress bar
    instead of a post-mortem.  Lines go to stderr so piped stdout stays
    machine-readable.
    """
    from .obs.events import EVENT_CANDIDATE, EVENT_PRUNE, EventBus
    from .parallel.engine import STATUS_OK, STATUS_PRUNED

    if tracer.bus is None:
        tracer.bus = EventBus()
    done = {"count": 0}

    def _render(event) -> None:
        if event.name == EVENT_PRUNE:
            return  # the paired candidate event carries the status
        if event.name != EVENT_CANDIDATE:
            return
        done["count"] += 1
        attrs = event.attrs
        status = attrs.get("status")
        if status == STATUS_OK:
            detail = f"area {attrs.get('area'):g}"
        elif status == STATUS_PRUNED:
            detail = f"pruned (bound {attrs.get('bound'):g})"
        else:
            detail = status or "?"
        print(
            f"[{done['count']}/{total}] {attrs.get('periods')} -> {detail}",
            file=sys.stderr,
        )

    tracer.bus.subscribe(_render)


def _preflight(args: argparse.Namespace) -> bool:
    """Run the diagnostics pass before scheduling (``--no-check`` skips).

    Errors are rendered on stderr and veto the run; warnings are
    rendered on stderr but let it proceed.
    """
    if getattr(args, "no_check", False):
        return True
    from .validation.preflight import validate_path

    report = validate_path(args.file)
    if report.errors or report.warnings:
        print(report.render(), file=sys.stderr)
    if report.errors:
        print(
            f"error [CHECK]: {args.file}: preflight found "
            f"{len(report.errors)} error(s); fix them or rerun with "
            "--no-check",
            file=sys.stderr,
        )
        return False
    return True


def _run_budget(args: argparse.Namespace) -> Optional[RunBudget]:
    """A RunBudget from ``--max-iterations``/``--time-budget``, or None."""
    max_iterations = getattr(args, "max_iterations", None)
    time_budget = getattr(args, "time_budget", None)
    if max_iterations is None and time_budget is None:
        return None
    from .validation.budget import RunBudget

    return RunBudget(max_iterations=max_iterations, wall_deadline=time_budget)


# ----------------------------------------------------------------------
# Thin-client paths (--server ADDR; see docs/service.md)
# ----------------------------------------------------------------------
def _reject_server_flags(
    args: argparse.Namespace, flags: Dict[str, str]
) -> None:
    """Fail fast on flags the remote protocol cannot honor.

    ``flags`` maps attribute names to the user-facing spelling; an
    attribute that is set (truthy, or non-default where a default is
    embedded in the message) raises a ``SERVE``-coded error instead of
    being silently dropped.
    """
    from .service.jobstore import ServiceError

    for attr, flag in flags.items():
        if getattr(args, attr, None):
            raise ServiceError(
                f"{flag} is not supported with --server; run locally "
                "or drop the flag"
            )


def _remote_outcome(args: argparse.Namespace, kind: str, options: Dict):
    """Submit one job to the daemon and wait for its payload."""
    from .service.session import RemoteSession

    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    session = RemoteSession(args.server)
    outcome = session.run(kind, text, options)
    if outcome.cached:
        print(
            "cache hit: result served from the daemon's "
            "content-addressed cache",
            file=sys.stderr,
        )
    return outcome


def _render_result_payload(payload: Dict) -> None:
    """Mirror ``SystemSchedule.summary()`` from a service payload."""
    counts = payload.get("instance_counts") or {}
    parts = [f"{count}x {name}" for name, count in counts.items()]
    line = f"system {payload.get('system')!r}: " + ", ".join(parts)
    line += f"; area {payload.get('area'):g}"
    if payload.get("iterations"):
        line += f"; {payload['iterations']} iterations"
    print(line)
    if payload.get("degraded"):
        print(
            "warning: the server's budget degraded this schedule to the "
            "list-scheduling fallback",
            file=sys.stderr,
        )


def _remote_schedule(args: argparse.Namespace) -> int:
    _reject_server_flags(
        args,
        {
            "table": "--table",
            "profile": "--profile",
            "trace": "--trace",
            "audit": "--audit",
            "time_budget": "--time-budget",
        },
    )
    if not _preflight(args):
        return 2
    options: Dict[str, object] = {}
    if args.local:
        options["local"] = True
    if args.max_iterations is not None:
        options["max_iterations"] = args.max_iterations
    outcome = _remote_outcome(args, "schedule", options)
    _render_result_payload(outcome.payload)
    if not args.no_verify:
        if not outcome.payload.get("verified"):
            print(
                "error [VERIFY]: the server-side verification failed",
                file=sys.stderr,
            )
            return 2
        print("verified: server-side static checks ok")
    return 0


def _remote_sweep(args: argparse.Namespace) -> int:
    _reject_server_flags(
        args,
        {
            "profile": "--profile",
            "trace": "--trace",
            "resume": "--resume",
            "live": "--live",
            "certify": "--certify",
            "job_timeout": "--job-timeout",
        },
    )
    if args.workers > 1 or args.chunk_size > 1:
        from .service.jobstore import ServiceError

        raise ServiceError(
            "--workers/--chunk-size are not supported with --server; "
            "the daemon sweeps serially for deterministic, cacheable "
            "results"
        )
    if not _preflight(args):
        return 2
    options: Dict[str, object] = {"limit": args.limit}
    if args.no_prune:
        options["prune"] = False
    outcome = _remote_outcome(args, "sweep", options)
    payload = outcome.payload
    print(
        f"{payload.get('total')} period assignments survive the "
        "eq. 3 filters"
    )
    if payload.get("dropped"):
        print(
            f"warning: truncated at --limit {args.limit} "
            f"({payload['dropped']} combinations not examined)",
            file=sys.stderr,
        )
    if args.verbose:
        from .parallel.engine import STATUS_OK, STATUS_PRUNED

        for record in payload.get("candidates") or []:
            if record["status"] == STATUS_OK:
                print(f"  {record['periods']} -> area {record['area']:g}")
            elif record["status"] == STATUS_PRUNED:
                print(
                    f"  {record['periods']} -> pruned "
                    f"(bound {record['bound']:g})"
                )
            else:
                print(f"  {record['periods']} -> failed: {record['error']}")
    print(
        f"sweep: {payload.get('evaluated')} evaluated, "
        f"{payload.get('pruned')} pruned, {payload.get('failed')} failed "
        f"(server: {args.server})"
    )
    best = payload.get("best")
    if best:
        print(f"best: {best['periods']} (area {best['area']:g})")
    elif payload.get("total"):
        print("error: no candidate produced a schedule", file=sys.stderr)
        return 1
    return 0


def _remote_certify(args: argparse.Namespace) -> int:
    _reject_server_flags(
        args,
        {
            "profile": "--profile",
            "trace": "--trace",
            "pool": "--pool",
            "recheck": "--recheck",
        },
    )
    options: Dict[str, object] = {}
    if args.offset_model != "deployed":
        options["offset_model"] = args.offset_model
    outcome = _remote_outcome(args, "certify", options)
    payload = outcome.payload
    certificate = payload.get("certificate") or {}
    if args.format == "json":
        print(json.dumps(certificate, indent=2))
    else:
        _render_result_payload(payload)
        print(
            f"certificate: {payload.get('verdict')} "
            f"({len(certificate.get('types') or [])} type proof(s), "
            f"offset model {certificate.get('offset_model')})"
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(certificate, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0 if payload.get("safe") else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from .obs.events import EventBus
    from .service.jobstore import JobStore
    from .service.server import ServiceServer

    fault_plan: Optional[FaultPlan] = None
    if args.inject_fault:
        # ``parallel.jobs`` loads the scheduler; only chaos runs need it.
        from .parallel.jobs import FaultPlan

        fault_plan = FaultPlan.parse(args.inject_fault)
        _log.warning(
            "fault injection armed: %s (chaos-testing mode)",
            fault_plan.spec(),
        )
    store = JobStore(
        args.state,
        queue_limit=args.queue_limit,
        job_timeout=args.job_timeout,
        fault_plan=fault_plan,
        bus=EventBus(),
    )
    server = ServiceServer(
        store, args.address, workers=args.serve_workers
    ).start()
    print(
        f"repro serve: listening on {server.address} "
        f"(state: {args.state}, workers: {args.serve_workers})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.shutdown()
    return 0


def _job_line(job: Dict) -> str:
    line = (
        f"{str(job.get('job'))[:16]}  {job.get('kind'):<9} "
        f"{job.get('state'):<9} attempts={job.get('attempts')}"
    )
    if job.get("cached"):
        line += "  (cached)"
    if job.get("error"):
        line += f"  error: {job['error']}"
    return line


def cmd_jobs(args: argparse.Namespace) -> int:
    import time as _time

    from .service.client import ServiceClient

    if args.gc:
        from .service.jobstore import JobStore

        if not args.state_dir or args.max_cache_bytes is None:
            print(
                "error [SERVE]: --gc needs --state-dir and "
                "--max-cache-bytes",
                file=sys.stderr,
            )
            return 2
        with JobStore(args.state_dir) as store:
            store.recover()
            stats = store.gc(args.max_cache_bytes)
        print(
            f"gc {args.state_dir}: evicted {stats['evicted']} payload(s), "
            f"freed {stats['freed_bytes']} bytes, "
            f"{stats['remaining_bytes']} bytes remain"
        )
        return 0
    if not args.server:
        print(
            "error [SERVE]: --server is required (or use --gc with a "
            "local --state-dir)",
            file=sys.stderr,
        )
        return 2
    client = ServiceClient(args.server)
    if args.metrics:
        print(client.metrics_text(), end="")
        return 0
    if not args.watch:
        jobs = client.jobs()
        if not jobs:
            print("no jobs")
            return 0
        for job in jobs:
            print(_job_line(job))
        return 0
    terminal = ("done", "failed", "cancelled")
    seen: Dict[str, object] = {}
    try:
        while True:
            jobs = client.jobs()
            for job in jobs:
                job_id = str(job.get("job"))
                key = (job.get("state"), job.get("attempts"))
                if seen.get(job_id) != key:
                    seen[job_id] = key
                    print(_job_line(job), flush=True)
            if jobs and all(job.get("state") in terminal for job in jobs):
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .validation.preflight import validate_path

    report = validate_path(args.file)
    if getattr(args, "format", "text") == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return report.exit_code


def _sys_paths(paths: List[str]) -> List[str]:
    """Expand directories to the ``*.sys`` files they contain."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(os.path.join(path, "*.sys"))))
        else:
            files.append(path)
    return files


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.static.lint import RULES_BY_NAME, run_lint
    from .api import load_problem
    from .validation.preflight import validate_path

    rules = None
    if args.rule:
        unknown = [name for name in args.rule if name not in RULES_BY_NAME]
        if unknown:
            print(
                f"error [CHECK]: unknown lint rule(s) "
                f"{', '.join(unknown)}; known: "
                f"{', '.join(sorted(RULES_BY_NAME))}",
                file=sys.stderr,
            )
            return 2
        rules = [RULES_BY_NAME[name] for name in args.rule]
    files = _sys_paths(args.paths)
    if not files:
        print("error [CHECK]: no .sys files to lint", file=sys.stderr)
        return 2
    reports = []
    worst = 0
    for path in files:
        report = validate_path(path)
        if report.ok:
            report = run_lint(load_problem(path), rules=rules, source=path)
        else:
            report.label = "lint"
        reports.append(report)
        worst = max(worst, report.exit_code)
    if args.format == "json":
        records = [report.as_dict() for report in reports]
        print(json.dumps(records[0] if len(records) == 1 else records, indent=2))
    else:
        for report in reports:
            print(report.render())
    return worst


def _parse_pools(entries: Optional[List[str]]) -> Optional[Dict[str, int]]:
    """``--pool TYPE=N`` entries as a mapping (None when absent)."""
    if not entries:
        return None
    pools: Dict[str, int] = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        try:
            pools[name] = int(value)
        except ValueError:
            sep = ""
        if not sep or not name:
            raise ReproError(f"--pool expects TYPE=N, got {entry!r}")
    return pools


def cmd_certify(args: argparse.Namespace) -> int:
    if getattr(args, "server", None):
        return _remote_certify(args)
    from .analysis.static.certifier import certify
    from .analysis.static.checker import check_certificate
    from .api import load_problem
    from .obs.profile import render_profile

    pools = _parse_pools(args.pool)
    problem = load_problem(args.file)
    tracer = _tracer_for(args)
    result = problem.schedule(tracer=tracer)
    certificate = certify(
        result, pools=pools, offset_model=args.offset_model, tracer=tracer
    )
    if args.format == "json":
        print(certificate.to_json())
    else:
        print(certificate.summary())
    if args.output:
        certificate.save(args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    if args.recheck:
        problems = check_certificate(certificate, result, pools=pools)
        if problems:
            for problem_text in problems:
                print(f"recheck: {problem_text}", file=sys.stderr)
            print(
                "error [CERT]: the independent checker rejected the "
                f"certificate ({len(problems)} problem(s))",
                file=sys.stderr,
            )
            return 2
        if args.format != "json":
            print("recheck: certificate independently re-verified")
    if args.profile and tracer is not None:
        print()
        print(render_profile(tracer.summary(), title=f"profile: {args.file}"))
    _finish_trace(args, tracer)
    return 0 if certificate.safe else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis.absint.analyze import analyze_problem, analyze_schedule
    from .analysis.absint.cone import extract_bottleneck_cone
    from .api import load_problem
    from .obs.profile import render_profile

    pools = _parse_pools(args.pool)
    problem = load_problem(args.file)
    tracer = _tracer_for(args)
    cone = None
    if args.mode == "problem":
        analysis = analyze_problem(
            problem,
            offset_model=args.offset_model,
            pools=pools,
            tracer=tracer,
        )
    else:
        result = problem.schedule(tracer=tracer)
        analysis = analyze_schedule(
            result,
            offset_model=args.offset_model,
            pools=pools,
            tracer=tracer,
        )
        if not args.no_cone and analysis.types:
            cone = extract_bottleneck_cone(
                result, absint=analysis, type_name=args.type_name
            )
    payload = analysis.as_dict()
    if cone is not None:
        payload["bottleneck_cone"] = cone.as_dict()
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(analysis.summary())
        if cone is not None:
            print()
            print(cone.render())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if args.profile and tracer is not None:
        print()
        print(render_profile(tracer.summary(), title=f"profile: {args.file}"))
    _finish_trace(args, tracer)
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    if getattr(args, "server", None):
        return _remote_schedule(args)
    if not _preflight(args):
        return 2
    from .api import load_problem
    from .binding.instances import bind_instances
    from .core.verify import verify_system_schedule
    from .obs.profile import render_profile

    problem = load_problem(args.file)
    tracer = _tracer_for(args)
    audit = _audit_for(args)
    budget = _run_budget(args)
    kwargs = {} if budget is None else {"budget": budget}
    if audit is not None:
        kwargs["audit"] = audit
    if args.local:
        result = problem.schedule_local_baseline(tracer=tracer, **kwargs)
    else:
        result = problem.schedule(tracer=tracer, **kwargs)
    print(result.summary())
    if result.degraded:
        info = result.telemetry.get("degraded", {})
        print(
            f"warning: budget exhausted ({info.get('reason', 'unknown')}); "
            f"result is a {info.get('fallback', 'fallback')} schedule, "
            "not force-directed",
            file=sys.stderr,
        )
    if args.table:
        from .analysis.tables import table1

        print()
        print(table1(result))
    if args.profile:
        print()
        print(render_profile(result.telemetry, title=f"profile: {args.file}"))
    if not args.no_verify:
        report = verify_system_schedule(result)
        if not report.ok:
            print(report, file=sys.stderr)
            return 2
        binding = bind_instances(result)
        print(
            f"verified: {len(report.checks)} checks ok, "
            f"{len(binding.binding)} operations bound"
        )
    _finish_audit(args, audit)
    _finish_trace(args, tracer)
    return 0


def _comparison_record(result: CandidateResult) -> dict:
    """Adapt an engine record to :func:`render_comparison`'s shape."""
    return {
        "instance_counts": result.instance_counts,
        "area": result.area,
        "iterations": result.iterations,
        "wall_time": result.wall_time,
    }


def cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.compare import render_comparison
    from .api import load_problem
    from .obs.profile import render_profile
    from .parallel.engine import ExplorationEngine

    problem = load_problem(args.file)
    tracer = _tracer_for(args)
    engine = ExplorationEngine(
        problem, workers=args.workers, prune=False, tracer=tracer
    )
    outcome = engine.compare()
    print(
        render_comparison(
            _comparison_record(outcome.global_result),
            _comparison_record(outcome.local_result),
        )
    )
    if args.profile:
        print()
        print(
            render_profile(
                outcome.telemetry, title=f"profile: {args.file} (both runs)"
            )
        )
    _finish_trace(args, tracer)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .api import load_problem
    from .sim.simulator import SystemSimulator

    problem = load_problem(args.file)
    result = problem.schedule()
    simulator = SystemSimulator(
        result, seed=args.seed, trigger_probability=args.trigger
    )
    if args.trials <= 1:
        stats = simulator.run(args.cycles)
        print(stats.summary())
        return 0 if stats.ok else 1
    failed = []
    for seed in range(args.seed, args.seed + args.trials):
        stats = simulator.run(args.cycles, seed=seed)
        if not stats.ok:
            failed.append(seed)
            print(
                f"seed {seed}: {len(stats.trace.violations)} violation(s)",
                file=sys.stderr,
            )
    print(
        f"simulated {args.trials} trials x {args.cycles} cycles "
        f"(seeds {args.seed}..{args.seed + args.trials - 1}): "
        f"{len(failed)} failing"
    )
    if failed:
        print(
            f"failing seeds: {', '.join(str(s) for s in failed)} "
            f"(reproduce with --seed N --trials 1)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if getattr(args, "server", None):
        return _remote_sweep(args)
    from .api import load_problem
    from .core.periods import enumerate_period_assignments_capped
    from .obs.profile import render_profile
    from .obs.tracer import Tracer
    from .parallel.engine import STATUS_OK, STATUS_PRUNED, ExplorationEngine

    if not _preflight(args):
        return 2
    problem = load_problem(args.file)
    tracer = _tracer_for(args)
    if args.live and tracer is None:
        tracer = Tracer()
    candidates, dropped = enumerate_period_assignments_capped(
        problem.system, problem.assignment, limit=args.limit
    )
    print(f"{len(candidates)} period assignments survive the eq. 3 filters")
    if dropped:
        _log.warning(
            "sweep truncated at --limit %d: %d period combinations "
            "were never examined; raise --limit for a complete sweep",
            args.limit,
            dropped,
        )
        print(
            f"warning: truncated at --limit {args.limit} "
            f"({dropped} combinations not examined)",
            file=sys.stderr,
        )

    def show(record: CandidateResult) -> None:
        """Per-candidate progress line, completion order (behind -v)."""
        if record.status == STATUS_OK:
            print(f"  {record.periods} -> area {record.area:g}")
        elif record.status == STATUS_PRUNED:
            print(f"  {record.periods} -> pruned (bound {record.bound:g})")
        else:
            print(f"  {record.periods} -> failed: {record.error}")

    if args.live:
        _live_progress(tracer, total=len(candidates))
    engine = ExplorationEngine(
        problem,
        workers=args.workers,
        prune=not args.no_prune,
        chunk_size=args.chunk_size,
        timeout=args.job_timeout,
        tracer=tracer,
        checkpoint=args.resume,
    )
    outcome = engine.sweep(
        candidates, on_result=show if args.verbose else None
    )
    outcome.telemetry["candidates_truncated"] = dropped
    restored = outcome.telemetry.get("candidates_restored", 0)
    if restored:
        print(
            f"resumed from {args.resume}: {restored} candidate(s) "
            "restored from the journal"
        )
    summary = (
        f"sweep: {outcome.evaluated} evaluated, {outcome.pruned} pruned, "
        f"{outcome.failed} failed"
    )
    if dropped:
        summary += f", {dropped} truncated"
    summary += f" (workers: {args.workers})"
    print(summary)
    certified_safe = True
    if outcome.best is not None:
        # Tie-break among equal-area winners: lexicographically smallest
        # sorted(periods.items()) — deterministic across worker counts.
        print(f"best: {outcome.best.periods} (area {outcome.best.area:g})")
        if args.certify:
            _, certificate = engine.certify_best(outcome)
            print()
            print(certificate.summary())
            certified_safe = certificate.safe
    if args.profile:
        print()
        print(
            render_profile(
                outcome.telemetry,
                title=f"profile: {args.file} "
                f"({outcome.evaluated} sweep runs)",
            )
        )
    _finish_trace(args, tracer)
    if candidates and outcome.best is None:
        print("error: no candidate produced a schedule", file=sys.stderr)
        return 1
    if not certified_safe:
        print(
            "error: the best candidate failed static certification",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .api import load_problem
    from .obs.profile import render_profile
    from .obs.tracer import Tracer

    problem = load_problem(args.file)
    tracer = Tracer()
    if args.local:
        result = problem.schedule_local_baseline(tracer=tracer)
    else:
        result = problem.schedule(tracer=tracer)
    if args.format == "json":
        print(json.dumps(result.telemetry, indent=2, sort_keys=True))
    else:
        print(result.summary())
        print()
        print(render_profile(result.telemetry, title=f"profile: {args.file}"))
    _finish_trace(args, tracer)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .analysis.attribution import attribute
    from .api import load_problem

    problem = load_problem(args.file)
    audit = _audit_for(args, always=True)
    result = problem.schedule(audit=audit)
    report = attribute(result, audit=audit)
    if args.format == "json":
        print(report.as_json())
    elif args.format == "markdown":
        print(report.render_markdown())
    else:
        print(report.render())
    _finish_audit(args, audit)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import run_report
    from .api import load_problem
    from .obs.tracer import Tracer

    problem = load_problem(args.file)
    tracer = Tracer()
    audit = _audit_for(args, always=True)
    result = problem.schedule(tracer=tracer, audit=audit)
    report = run_report(result, audit=audit, source=args.file)
    text = (
        report.as_json()
        if args.format == "json"
        else report.render_markdown()
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    _finish_audit(args, audit)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from .api import load_problem

    problem = load_problem(args.file)
    system = problem.system
    print(f"system {system.name!r}: {len(system)} processes, "
          f"{system.operation_count} operations")
    for process in system.processes:
        for block in process.blocks:
            counts = ", ".join(
                f"{n}x {kind.symbol}"
                for kind, n in block.graph.count_by_kind().items()
            )
            cp = block.graph.critical_path_length(problem.library.latency_of)
            tag = " (repeats)" if block.repeats else ""
            print(
                f"  {process.name}/{block.name}: {len(block.graph)} ops "
                f"({counts}), critical path {cp}, deadline {block.deadline}{tag}"
            )
    for type_name in problem.assignment.global_types:
        group = ", ".join(problem.assignment.group(type_name))
        print(
            f"  global {type_name}: shared by {group}, "
            f"period {problem.periods.period(type_name)}"
        )
    return 0


def cmd_rtl(args: argparse.Namespace) -> int:
    from .api import load_problem
    from .rtl.design import build_rtl
    from .rtl.verilog import emit_verilog

    problem = load_problem(args.file)
    result = problem.schedule()
    design = build_rtl(result)
    design.consistency_check()
    text = emit_verilog(design)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        stats = design.stats()
        print(
            f"wrote {args.output}: {stats['units']} units, "
            f"{stats['controllers']} controllers, {stats['issues']} issues"
        )
    else:
        print(text)
    return 0


def cmd_gantt(args: argparse.Namespace) -> int:
    from .analysis.gantt import system_gantt
    from .api import load_problem

    problem = load_problem(args.file)
    result = problem.schedule()
    print(result.summary())
    print()
    print(system_gantt(result))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from .analysis.export import export_result, result_to_json
    from .api import load_problem

    problem = load_problem(args.file)
    result = problem.schedule()
    if args.output:
        export_result(result, args.output)
        print(f"wrote {args.output}")
    else:
        print(result_to_json(result))
    return 0


_COMMANDS = {
    "schedule": cmd_schedule,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "lint": cmd_lint,
    "certify": cmd_certify,
    "analyze": cmd_analyze,
    "explain": cmd_explain,
    "report": cmd_report,
    "profile": cmd_profile,
    "info": cmd_info,
    "rtl": cmd_rtl,
    "gantt": cmd_gantt,
    "export": cmd_export,
    "serve": cmd_serve,
    "jobs": cmd_jobs,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    verbose = getattr(args, "verbose", 0)
    configure_logging(verbose, getattr(args, "quiet", False))
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        if verbose:
            traceback.print_exc()
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if verbose:
            traceback.print_exc()
        print(f"error [OS]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
