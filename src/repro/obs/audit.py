"""Decision-audit telemetry: why the scheduler did what it did.

The coupled reduction loop makes thousands of per-iteration choices —
which operation's frame to shrink, at which side, under which
global-coupling state — and aggregate counters cannot answer *why* a
given operation landed where it did.  An :class:`AuditTrail` records,
per committed reduction, the full decision context:

* every **candidate** considered that iteration, with the forces at both
  frame ends and how the value was obtained (``cache`` classification:
  ``fresh`` evaluation, ``hit`` reuse, or ``uncached`` scan);
* the **winner** (process, block, op, side, score) and its **timeframe
  delta** — the frame before the commit, the frame after, and how many
  other frames the precedence propagation moved;
* the coupling **scopes** the commit produced (which global types were
  perturbed and how far — ``clean``/``process``/``system``).

Recording is strictly opt-in: schedulers take ``audit=None`` and the
scheduling code only assembles decision records when a trail is passed,
so the disabled path costs one ``None`` check per iteration.  The trail
is **ring-buffered** (`capacity` newest decisions are kept; older ones
are counted in ``dropped``) so auditing a long run has bounded memory.

The trail rides on :attr:`repro.core.result.SystemSchedule.telemetry`
under ``telemetry["audit"]`` (summary + records) and exports as JSONL
via ``repro schedule --audit out.jsonl``.  The attribution layer
(:mod:`repro.analysis.attribution`) folds it with the certifier's
conflict triples to rank what pins the area.

The trail observes and never steers: an audited run makes byte-identical
scheduling decisions (pinned by ``tests/obs/test_audit.py``).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

#: Cache classifications a candidate evaluation can carry.
CACHE_FRESH = "fresh"
CACHE_HIT = "hit"
CACHE_UNCACHED = "uncached"

#: Default ring capacity: enough for every decision of the paper-scale
#: systems while bounding a pathological run to a few MB.
DEFAULT_CAPACITY = 16384


@dataclass(frozen=True)
class CandidateAudit:
    """One candidate considered during a selection scan."""

    process: str
    block: str
    op: str
    force_low: float
    force_high: float
    score: float
    cache: str = CACHE_UNCACHED

    def as_record(self) -> Dict[str, Any]:
        return {
            "process": self.process,
            "block": self.block,
            "op": self.op,
            "force_low": round(self.force_low, 9),
            "force_high": round(self.force_high, 9),
            "score": round(self.score, 9),
            "cache": self.cache,
        }


@dataclass(frozen=True)
class DecisionAudit:
    """One committed reduction with its full decision context."""

    iteration: int
    process: str
    block: str
    op: str
    side: str
    score: float
    force_low: float
    force_high: float
    frame_before: Tuple[int, int]
    frame_after: Tuple[int, int]
    cache: str = CACHE_UNCACHED
    #: Ops whose frames the commit's precedence propagation moved
    #: (including the winner itself).
    changed_ops: Tuple[str, ...] = ()
    #: Resource types whose distributions the commit touched.
    touched_types: Tuple[str, ...] = ()
    #: Per-global-type propagation scope (clean/process/system).
    scopes: Mapping[str, str] = field(default_factory=dict)
    #: Every candidate considered this iteration (empty when candidate
    #: capture is off).
    candidates: Tuple[CandidateAudit, ...] = ()

    def as_record(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "type": "decision",
            "iteration": self.iteration,
            "process": self.process,
            "block": self.block,
            "op": self.op,
            "side": self.side,
            "score": round(self.score, 9),
            "force_low": round(self.force_low, 9),
            "force_high": round(self.force_high, 9),
            "frame_before": list(self.frame_before),
            "frame_after": list(self.frame_after),
            "cache": self.cache,
            "changed_ops": list(self.changed_ops),
            "touched_types": list(self.touched_types),
        }
        if self.scopes:
            record["scopes"] = dict(self.scopes)
        if self.candidates:
            record["candidates"] = [c.as_record() for c in self.candidates]
        return record


class AuditTrail:
    """Ring buffer of :class:`DecisionAudit` records.

    Args:
        capacity: Newest decisions kept; older ones only bump
            ``dropped``.  ``None`` keeps everything (unbounded).
        keep_candidates: Record the full per-candidate force table of
            every iteration.  The dominant cost of auditing; disable to
            keep only the winners.
    """

    enabled = True

    def __init__(
        self,
        capacity: Optional[int] = DEFAULT_CAPACITY,
        *,
        keep_candidates: bool = True,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.keep_candidates = keep_candidates
        self._decisions: Deque[DecisionAudit] = deque(maxlen=capacity)
        self.recorded = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, decision: DecisionAudit) -> None:
        self.recorded += 1
        self._decisions.append(decision)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def decisions(self) -> List[DecisionAudit]:
        """The retained decisions, oldest first."""
        return list(self._decisions)

    @property
    def dropped(self) -> int:
        """Decisions pushed out of the ring by newer ones."""
        return self.recorded - len(self._decisions)

    def __len__(self) -> int:
        return len(self._decisions)

    def decisions_for(
        self, *, process: Optional[str] = None, op: Optional[str] = None
    ) -> List[DecisionAudit]:
        """Retained decisions filtered by winner process and/or op."""
        return [
            d
            for d in self._decisions
            if (process is None or d.process == process)
            and (op is None or d.op == op)
        ]

    def summary(self) -> Dict[str, Any]:
        """Compact dict for ``telemetry["audit"]``."""
        return {
            "decisions": len(self._decisions),
            "recorded": self.recorded,
            "dropped": self.dropped,
            "capacity": self.capacity,
            "candidates_kept": self.keep_candidates,
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_records(self) -> List[Dict[str, Any]]:
        """JSON-safe records, oldest first, preceded by no header —
        every line round-trips through ``json.loads``."""
        return [decision.as_record() for decision in self._decisions]

    def write_jsonl(self, path) -> int:
        """Write the trail as JSON Lines; returns the record count.

        The first line is a ``{"type": "audit_summary", ...}`` header so
        a truncated ring is visible in the artifact itself.
        """
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            header = {"type": "audit_summary", **self.summary()}
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            written += 1
            for decision in self._decisions:
                handle.write(
                    json.dumps(decision.as_record(), sort_keys=True) + "\n"
                )
                written += 1
        return written


class NullAuditTrail:
    """Do-nothing trail with the :class:`AuditTrail` interface."""

    enabled = False
    recorded = 0
    dropped = 0
    capacity: Optional[int] = 0
    keep_candidates = False

    __slots__ = ()

    @property
    def decisions(self) -> List[DecisionAudit]:
        return []

    def record(self, decision: DecisionAudit) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def summary(self) -> Dict[str, Any]:
        return {
            "decisions": 0,
            "recorded": 0,
            "dropped": 0,
            "capacity": 0,
            "candidates_kept": False,
        }

    def as_records(self) -> List[Dict[str, Any]]:
        return []


#: Shared no-op trail: safe to pass anywhere, records nothing.
NULL_AUDIT = NullAuditTrail()
