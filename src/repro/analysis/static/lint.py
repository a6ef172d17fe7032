"""Rule-driven IR lint over scheduling problems.

A :class:`LintRule` inspects one :class:`repro.api.Problem` (and, for
schedule-scoped rules, the schedule plus its safety certificate) and
reports findings through the :mod:`repro.validation.diagnostics`
registry under stable ``LINT*`` codes — same report type, severity
conventions, and exit codes as ``repro check``, so editors and CI treat
both passes uniformly:

==========  ========  =====================================================
code        severity  finding
==========  ========  =====================================================
LINT001     error     operation timeframe infeasible (ASAP exceeds ALAP)
LINT101     warning   dead operation: result never consumed or stored
LINT102     warning   redundant transitive dependence edge
LINT103     warning   pool allocation exceeds the certifier's proven peak
LINT201     info      block fully rigid (every timeframe a single slot)
LINT202     info      multicycle pool sized above the peak slot demand
LINT203     info      period slots never authorized for the sharing group
LINT301     warning   pressure hotspot: every schedule saturates the pool
LINT302     info      residue class unreachable by any admissible schedule
LINT303     info      pool interval-proven over-provisioned
PERIOD1xx   (reused)  eq. 2-3 period-grid rules, shared with preflight
==========  ========  =====================================================

Rules are pure functions over a lazy :class:`LintContext`; problem-scoped
rules never schedule anything, schedule-scoped rules share one scheduling
run and one certificate.  :func:`run_lint` executes a rule set (default:
:data:`DEFAULT_RULES`) and returns a
:class:`~repro.validation.diagnostics.DiagnosticReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ...errors import ReproError
from ...ir.operation import OpKind
from ...obs.counters import LINT_FINDINGS, LINT_RULES_RUN, count
from ...validation.diagnostics import DiagnosticReport
from ...validation.preflight import check_period_grid
from .certificate import Certificate
from .certifier import certify

if TYPE_CHECKING:
    from ...api import Problem
    from ...core.result import SystemSchedule
    from ...ir.dfg import DataFlowGraph
    from ...ir.operation import Operation

#: Rule scopes: problem-scoped rules read only the IR; schedule-scoped
#: rules additionally see the scheduled system and its certificate.
SCOPE_PROBLEM = "problem"
SCOPE_SCHEDULE = "schedule"


class LintContext:
    """Lazy shared state handed to every rule of one lint run.

    The schedule and certificate are produced at most once, on first
    access by a schedule-scoped rule; if the problem does not schedule,
    they stay ``None`` and such rules are skipped.
    """

    def __init__(
        self, problem: "Problem", pools: Optional[Mapping[str, int]] = None
    ) -> None:
        self.problem = problem
        self.pools = dict(pools) if pools else None
        self._schedule: Optional["SystemSchedule"] = None
        self._schedule_failed = False
        self._certificate: Optional[Certificate] = None

    @property
    def schedule(self) -> Optional["SystemSchedule"]:
        if self._schedule is None and not self._schedule_failed:
            try:
                self._schedule = self.problem.schedule()
            except ReproError:
                self._schedule_failed = True
        return self._schedule

    @property
    def certificate(self) -> Optional[Certificate]:
        if self._certificate is None and self.schedule is not None:
            self._certificate = certify(self.schedule, pools=self.pools)
        return self._certificate


@dataclass(frozen=True)
class LintRule:
    """One named lint pass emitting a fixed set of diagnostic codes."""

    name: str
    codes: Tuple[str, ...]
    scope: str
    run: Callable[[LintContext, DiagnosticReport], None]

    def applies(self, ctx: LintContext) -> bool:
        return self.scope == SCOPE_PROBLEM or ctx.schedule is not None


def run_lint(
    problem: "Problem",
    *,
    rules: Optional[Sequence[LintRule]] = None,
    pools: Optional[Mapping[str, int]] = None,
    source: Optional[str] = None,
    tracer: Optional[Any] = None,
) -> DiagnosticReport:
    """Run a lint rule set over a problem and return the report."""
    from ...obs.tracer import as_tracer

    tracer = as_tracer(tracer)
    report = DiagnosticReport(source=source or problem.system.name, label="lint")
    ctx = LintContext(problem, pools=pools)
    with tracer.activate(), tracer.span("lint", system=problem.system.name):
        for rule in rules if rules is not None else DEFAULT_RULES:
            if not rule.applies(ctx):
                continue
            before = len(report.diagnostics)
            with tracer.span("lint_rule", rule=rule.name):
                rule.run(ctx, report)
            count(LINT_RULES_RUN)
            count(LINT_FINDINGS, len(report.diagnostics) - before)
    return report


# ----------------------------------------------------------------------
# Problem-scoped rules
# ----------------------------------------------------------------------
def _frames(
    graph: "DataFlowGraph",
    latency_of: Callable[["Operation"], int],
    deadline: int,
) -> Dict[str, Tuple[int, int]]:
    """Unconstrained ``[asap, alap]`` start frames; never raises.

    Computed directly (forward/backward longest path) rather than via
    :class:`repro.scheduling.timeframes.FrameTable`, which raises on
    infeasible frames — the lint wants to *report* those.
    """
    asap: Dict[str, int] = {}
    order = graph.topological_order()
    for oid in order:
        asap[oid] = max(
            (
                asap[pred] + latency_of(graph.operation(pred))
                for pred in graph.predecessors(oid)
            ),
            default=0,
        )
    alap: Dict[str, int] = {}
    for oid in reversed(order):
        finish = min(
            (alap[succ] for succ in graph.successors(oid)),
            default=deadline,
        )
        alap[oid] = finish - latency_of(graph.operation(oid))
    return {oid: (asap[oid], alap[oid]) for oid in order}


def _rule_timeframes(ctx: LintContext, report: DiagnosticReport) -> None:
    library = ctx.problem.library
    for process, block in ctx.problem.system.iter_blocks():
        try:
            frames = _frames(block.graph, library.latency_of, block.deadline)
        except ReproError:
            continue  # uncovered kinds / cycles: preflight territory
        rigid = bool(frames)
        for oid, (lo, hi) in frames.items():
            if lo > hi:
                report.add(
                    "LINT001",
                    f"timeframe of {oid!r} is empty: asap {lo} > alap {hi} "
                    f"against deadline {block.deadline}",
                    process=process.name,
                    block=block.name,
                    op=oid,
                    hint="raise the deadline or shorten the dependence chain",
                )
            rigid = rigid and lo == hi
        if rigid:
            report.add(
                "LINT201",
                "every operation is frame-rigid (zero mobility); the "
                "scheduler has no freedom to balance resource usage",
                process=process.name,
                block=block.name,
                hint="a larger deadline would unlock cheaper schedules",
            )


def _rule_dead_operations(ctx: LintContext, report: DiagnosticReport) -> None:
    for process, block in ctx.problem.system.iter_blocks():
        graph = block.graph
        sinks = graph.sinks()
        stored = [
            oid for oid in sinks if graph.operation(oid).kind is OpKind.STORE
        ]
        if not stored:
            continue  # no explicit outputs: plain sinks ARE the outputs
        for oid in sinks:
            if graph.operation(oid).kind is OpKind.STORE:
                continue
            report.add(
                "LINT101",
                f"result of {oid!r} is never consumed or stored",
                process=process.name,
                block=block.name,
                op=oid,
                hint="add a consumer/store edge or delete the operation",
            )


def _rule_redundant_edges(ctx: LintContext, report: DiagnosticReport) -> None:
    for process, block in ctx.problem.system.iter_blocks():
        graph = block.graph
        # Reachability closure in reverse topological order.
        reachable: Dict[str, Set[str]] = {}
        try:
            order = graph.topological_order()
        except ReproError:
            continue
        for oid in reversed(order):
            acc: Set[str] = set()
            for succ in graph.successors(oid):
                acc.add(succ)
                acc |= reachable[succ]
            reachable[oid] = acc
        for src, dst in graph.edges:
            indirect = any(
                dst in reachable[mid]
                for mid in graph.successors(src)
                if mid != dst
            )
            if indirect:
                report.add(
                    "LINT102",
                    f"edge {src!r} -> {dst!r} is implied by a longer "
                    "dependence path",
                    process=process.name,
                    block=block.name,
                    hint="drop the direct edge; precedence is preserved",
                )


def _rule_period_grid(ctx: LintContext, report: DiagnosticReport) -> None:
    problem = ctx.problem
    groups = {
        type_name: problem.assignment.group(type_name)
        for type_name in problem.assignment.global_types
    }
    check_period_grid(
        report, problem.system, groups, groups, problem.periods.as_dict
    )


# ----------------------------------------------------------------------
# Schedule-scoped rules
# ----------------------------------------------------------------------
def _rule_pool_provisioning(ctx: LintContext, report: DiagnosticReport) -> None:
    result = ctx.schedule
    certificate = ctx.certificate
    if result is None or certificate is None:
        return
    for proof in certificate.types:
        if proof.pool <= proof.proven_peak:
            continue
        if proof.multicycle:
            report.add(
                "LINT202",
                f"multicycle pool of {proof.type_name!r} holds {proof.pool} "
                f"instances against a peak slot demand of "
                f"{proof.proven_peak} (operations span slots, so the "
                "coloring bound applies)",
                hint="pipelining the unit would shrink the pool to the peak",
            )
        else:
            report.add(
                "LINT103",
                f"pool of {proof.type_name!r} allocates {proof.pool} "
                f"instances but the certifier proves a peak demand of "
                f"{proof.proven_peak}",
                hint=f"{proof.pool - proof.proven_peak} instance(s) can "
                "be dropped",
            )


def _rule_residue_pressure(ctx: LintContext, report: DiagnosticReport) -> None:
    """Residue-pressure findings from the abstract interpretation.

    Problem-mode intervals quantify over *every* grid-admissible
    schedule, so these findings are properties of the design, not of the
    one schedule the lint run happened to produce:

    * LINT301 — a *claimed* pool (an explicit ``--pool`` override) is
      already saturated by the interval lower peak: no admissible
      schedule leaves any slack (warning: the allocation has no
      headroom against timing or sharing changes).  Derived pools are
      exempt — they equal the produced schedule's demand peak, so
      saturation there is tautological, not a finding;
    * LINT302 — a residue class no admissible schedule can occupy
      (stronger than LINT203, which only sees the produced schedule);
    * LINT303 — the pool exceeds the interval *upper* peak: it is
      over-provisioned for every admissible schedule, not just this one.
    """
    result = ctx.schedule
    if result is None:
        return
    from ..absint.analyze import analyze_problem

    pools = {
        type_name: result.global_instances(type_name)
        for type_name in result.assignment.global_types
    }
    if ctx.pools:
        pools.update(ctx.pools)
    analysis = analyze_problem(ctx.problem, pools=pools)
    for entry in analysis.types:
        pool = entry.pool
        if pool is None:
            continue
        claimed = bool(ctx.pools) and entry.type_name in ctx.pools
        if claimed and entry.lower_peak >= pool > 0:
            tight = entry.tightest_slot()
            report.add(
                "LINT301",
                f"pool of {entry.type_name!r} ({pool}) is saturated by "
                f"every grid-admissible schedule: interval peak in "
                f"[{entry.lower_peak}, {entry.upper_peak}], hotspot at "
                f"period slot {tight}",
                hint="grow the pool or relax deadlines to regain slack",
            )
        unreachable = entry.unreachable_slots()
        if unreachable:
            report.add(
                "LINT302",
                f"no grid-admissible schedule can occupy period slot(s) "
                f"{unreachable} of {entry.type_name!r}",
                hint="a smaller period would fold the dead slots away",
            )
        multicycle = ctx.problem.library.type(entry.type_name).occupancy > 1
        if pool > entry.upper_peak and not multicycle:
            # Multicycle pools are coloring-sized and may legitimately
            # exceed the peak slot demand (LINT202 covers those).
            report.add(
                "LINT303",
                f"pool of {entry.type_name!r} allocates {pool} instances "
                f"but no grid-admissible schedule can demand more than "
                f"{entry.upper_peak}",
                hint=f"{pool - entry.upper_peak} instance(s) are unusable "
                "under the current period grid",
            )


def _rule_idle_slots(ctx: LintContext, report: DiagnosticReport) -> None:
    result = ctx.schedule
    if result is None:
        return
    for type_name in result.assignment.global_types:
        demand = result.global_demand(type_name)
        idle = [int(tau) for tau in range(len(demand)) if demand[tau] == 0]
        if idle:
            report.add(
                "LINT203",
                f"global type {type_name!r} is never authorized at period "
                f"slot(s) {idle}; the pool sits idle there",
                hint="a smaller period may fold the idle slots away",
            )


#: The shipped rule set, problem-scoped rules first.
DEFAULT_RULES: List[LintRule] = [
    LintRule(
        name="timeframes",
        codes=("LINT001", "LINT201"),
        scope=SCOPE_PROBLEM,
        run=_rule_timeframes,
    ),
    LintRule(
        name="dead-operations",
        codes=("LINT101",),
        scope=SCOPE_PROBLEM,
        run=_rule_dead_operations,
    ),
    LintRule(
        name="redundant-edges",
        codes=("LINT102",),
        scope=SCOPE_PROBLEM,
        run=_rule_redundant_edges,
    ),
    LintRule(
        name="period-grid",
        codes=("PERIOD101", "PERIOD102", "PERIOD103", "PERIOD201"),
        scope=SCOPE_PROBLEM,
        run=_rule_period_grid,
    ),
    LintRule(
        name="pool-provisioning",
        codes=("LINT103", "LINT202"),
        scope=SCOPE_SCHEDULE,
        run=_rule_pool_provisioning,
    ),
    LintRule(
        name="idle-slots",
        codes=("LINT203",),
        scope=SCOPE_SCHEDULE,
        run=_rule_idle_slots,
    ),
    LintRule(
        name="residue-pressure",
        codes=("LINT301", "LINT302", "LINT303"),
        scope=SCOPE_SCHEDULE,
        run=_rule_residue_pressure,
    ),
]

#: Rules by name, for CLI ``--rule`` selection.
RULES_BY_NAME: Dict[str, LintRule] = {rule.name: rule for rule in DEFAULT_RULES}
