"""Crash-safe sweep checkpoints: a JSONL journal of finished candidates.

Each line of a :class:`SweepJournal` file is one completed candidate
outcome (evaluated, pruned, or failed), appended with
:func:`repro.durable.append` *before* the result is surfaced, so a
sweep killed at any instant — including ``SIGKILL`` — loses at most the
candidate that was still in flight.  Resuming a sweep with the same journal path restores
every journaled outcome by its deterministic candidate key
(``tuple(sorted(periods.items()))``), skips those candidates
exactly-once, and seeds the incumbent-area bound from the journaled
results so pruning decisions stay sound: a journaled pruned candidate
was pruned against a real evaluated incumbent whose area is restored
alongside it.

Loading tolerates a truncated final line (the classic torn-write tail of
a crash) by dropping it: the candidate simply re-runs, which is safe —
journaling is exactly-once for *completed* work, at-least-once overall.
A journaled ``failed`` candidate is not completed work: a resumed sweep
runs it again and journals the new outcome after it.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .. import durable
from ..errors import ReproError
from ..obs.logconfig import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import CandidateResult

_log = get_logger(__name__)

LexKey = Tuple[Tuple[str, int], ...]

#: Re-exported: the journal reader lives with the durable writes.
load_jsonl_tolerant = durable.load_jsonl_tolerant

#: Journal schema version; bump only on incompatible record changes.
JOURNAL_VERSION = 1


class CheckpointError(ReproError):
    """A sweep checkpoint journal is unusable (I/O failure, bad schema)."""

    code = "CKPT"


def candidate_key(periods: Dict[str, int]) -> LexKey:
    """The journal identity of a candidate: its sorted period items."""
    return tuple(sorted(periods.items()))


class SweepJournal:
    """Append-only JSONL journal of completed sweep candidates.

    Opening a path that already holds a journal is the resume case:
    :meth:`load` returns the previously completed records keyed by
    candidate, and subsequent :meth:`append` calls extend the same file.
    Each append opens the file afresh, so a journal holds nothing open
    and its ``with`` form only scopes the name.
    """

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = str(path)

    # ------------------------------------------------------------------
    # Reading (resume)
    # ------------------------------------------------------------------
    def load(self) -> Dict[LexKey, Dict[str, object]]:
        """Completed records keyed by candidate; ``{}`` if no file yet.

        Malformed lines (torn tail after a crash) are dropped with a
        warning — the affected candidate just re-runs.  A duplicate key
        keeps the first occurrence, preserving the outcome that actually
        completed first, unless that occurrence is a failure: a resumed
        sweep runs a journaled failure again, and the rerun's record
        supersedes it.
        """
        if not os.path.exists(self.path):
            return {}
        records: Dict[LexKey, Dict[str, object]] = {}
        try:
            entries, dropped = durable.load_jsonl_tolerant(self.path)
        except OSError as exc:
            raise CheckpointError(
                f"cannot read sweep checkpoint {self.path!r}: {exc}"
            ) from exc
        for entry in entries:
            try:
                if entry.get("version") != JOURNAL_VERSION:
                    raise ValueError(
                        f"journal version {entry.get('version')!r}"
                    )
                periods = {
                    str(k): int(v) for k, v in entry["periods"].items()
                }
                if "status" not in entry:
                    raise ValueError("missing status")
            except (ValueError, KeyError, TypeError, AttributeError):
                dropped += 1
                continue
            entry["periods"] = periods
            known = records.get(candidate_key(periods))
            if known is None or known["status"] == "failed":
                records[candidate_key(periods)] = entry
        if dropped:
            _log.warning(
                "sweep checkpoint %s: dropped %d unreadable line(s) "
                "(truncated tail?); the candidates will re-run",
                self.path,
                dropped,
            )
        return records

    @staticmethod
    def best_area(records: Dict[LexKey, Dict[str, object]]) -> Optional[float]:
        """Smallest journaled evaluated area — the restored incumbent."""
        areas = [
            float(entry["area"])
            for entry in records.values()
            if entry.get("status") == "ok" and entry.get("area") is not None
        ]
        return min(areas) if areas else None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: "CandidateResult") -> None:
        """Durably journal one finished :class:`CandidateResult`."""
        entry = {
            "version": JOURNAL_VERSION,
            "order": record.order,
            "periods": dict(record.periods),
            "status": record.status,
            "area": record.area,
            "bound": record.bound,
            "iterations": record.iterations,
            "wall_time": record.wall_time,
            "instance_counts": dict(record.instance_counts),
            "error": record.error,
            "attempts": record.attempts,
        }
        line = json.dumps(entry, sort_keys=True) + "\n"
        try:
            durable.append(self.path, line.encode("utf-8"))
        except OSError as exc:
            raise CheckpointError(
                f"cannot write sweep checkpoint {self.path!r}: {exc}"
            ) from exc

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass
