"""Static verification of system schedules.

The safety argument of the paper (§3.2) reduces to a per-slot inequality:
block start times are restricted to multiples of the process grid (eq. 2),
so at any absolute time ``u`` an active block contributes usage at the
relative step ``u - start ≡ u (mod P)``; condition C2 gives at most one
active block per process; hence the concurrent usage of a global type
never exceeds the slot-wise sum of the per-process authorizations.  The
verifier checks every link of that chain on a concrete result:

* every block schedule satisfies precedence and deadline constraints;
* authorizations dominate the folded usage of every block;
* the global pool size equals the maximum slot demand;
* local instance counts dominate every block's peak usage.

The randomized dynamic counterpart lives in :mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from ..errors import VerificationError

if TYPE_CHECKING:
    from .result import SystemSchedule


@dataclass
class Check:
    """One verification check outcome."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    """All checks performed on one system schedule."""

    checks: List[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> List[Check]:
        return [check for check in self.checks if not check.ok]

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name=name, ok=ok, detail=detail))

    def raise_on_failure(self) -> None:
        bad = self.failures()
        if bad:
            lines = [f"{check.name}: {check.detail}" for check in bad]
            raise VerificationError("verification failed:\n" + "\n".join(lines))

    def __str__(self) -> str:
        lines = []
        for check in self.checks:
            status = "ok " if check.ok else "FAIL"
            suffix = f" ({check.detail})" if check.detail else ""
            lines.append(f"[{status}] {check.name}{suffix}")
        return "\n".join(lines)


def verify_system_schedule(result: SystemSchedule) -> VerificationReport:
    """Run all static checks; returns a report (never raises)."""
    report = VerificationReport()
    _check_blocks(result, report)
    _check_authorizations(result, report)
    _check_global_pools(result, report)
    _check_local_counts(result, report)
    return report


def verify(result: SystemSchedule) -> None:
    """Run all static checks; raise :class:`VerificationError` on failure."""
    verify_system_schedule(result).raise_on_failure()


def _check_blocks(result: SystemSchedule, report: VerificationReport) -> None:
    for process, block in result.system.iter_blocks():
        name = f"block {process.name}/{block.name}"
        try:
            sched = result.schedule_of(process.name, block.name)
            sched.validate()
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            report.add(name, False, str(exc))
            continue
        if sched.makespan > block.deadline:
            report.add(
                name, False, f"makespan {sched.makespan} > deadline {block.deadline}"
            )
        else:
            report.add(name, True)


def _check_authorizations(result: SystemSchedule, report: VerificationReport) -> None:
    # Imported here, not at module level: ``repro.core`` binds ``verify``
    # eagerly, and numpy must not load with every ``repro.core`` import.
    import numpy as np

    from .modulo import modulo_max_int

    for type_name in result.assignment.global_types:
        period = result.periods.period(type_name)
        for process_name in result.assignment.group(type_name):
            auth = result.authorization(process_name, type_name)
            offset = result.offset_of(process_name) % period
            name = f"authorization {process_name}/{type_name}"
            ok = True
            detail = ""
            for block_name, sched in result.blocks_of(process_name):
                folded = modulo_max_int(sched.usage_profile(type_name), period)
                if offset:
                    folded = np.roll(folded, offset)
                over = np.flatnonzero(folded > auth)
                if over.size:
                    slot = int(over[0])
                    ok = False
                    detail = (
                        f"(type {type_name!r}, slot {slot}, processes "
                        f"{process_name}): block {block_name} usage "
                        f"{int(folded[slot])} exceeds authorization "
                        f"{int(auth[slot])}"
                    )
                    break
            report.add(name, ok, detail)


def _check_global_pools(result: SystemSchedule, report: VerificationReport) -> None:
    for type_name in result.assignment.global_types:
        demand = result.global_demand(type_name)
        instances = result.global_instances(type_name)
        name = f"global pool {type_name}"
        if demand.size and int(demand.max()) > instances:
            report.add(
                name, False, _pool_conflict_detail(result, type_name, instances)
            )
        else:
            report.add(name, True, f"pool {instances}")


def _pool_conflict_detail(
    result: SystemSchedule, type_name: str, instances: int
) -> str:
    """A pool-exceeded detail naming the ``(type, slot, processes)`` triple.

    Reuses the certifier's counterexample realization so the verifier and
    ``repro certify`` render one conflict identically.  Imported lazily:
    the certifier sits above this module in the layering.
    """
    try:
        from ..analysis.static.certifier import pool_conflict

        return pool_conflict(result, type_name, instances).render()
    except Exception:  # noqa: BLE001 - a broken detail must not mask the FAIL
        demand = result.global_demand(type_name)
        return f"slot demand {int(demand.max())} > pool {instances}"


def _check_local_counts(result: SystemSchedule, report: VerificationReport) -> None:
    for process in result.system.processes:
        # An unused type has peak 0 everywhere, which adds no check.
        used = result.types_used(process.name)
        for rtype in result.library.types:
            if rtype.name not in used or result.assignment.shares_globally(
                rtype.name, process.name
            ):
                continue
            declared = result.local_instances(process.name, rtype.name)
            peak = 0
            for _, sched in result.blocks_of(process.name):
                peak = max(peak, sched.peak_usage(rtype.name))
            name = f"local {process.name}/{rtype.name}"
            if peak > declared:
                report.add(name, False, f"peak {peak} > instances {declared}")
            elif peak:
                report.add(name, True, f"{declared} instances")
