"""Incremental selection scoreboard: dirty-cone candidate rescoring.

Every iteration of the coupled scheduler picks the reduction with the
largest weighted force difference by folding a score over *all* mobile
candidates of *all* blocks (``score > best + 1e-12`` in scan order).
The force cache makes each evaluation incremental and the array kernels
vectorize it — but a plain scan would still touch every entry every
iteration.

A :class:`SelectionScoreboard` removes that last full pass.  The
selection engine keeps every candidate's score in a persistent per-slot
array; the scoreboard decides which entries (blocks) must be rescored
before the next fold.  That is the commit's dirty cone: the committed
block, its same-process siblings when the coupling scope was not
``clean``, and every entry *subscribed* to a globally balanced type
whose system distribution ``S`` bumped.  Every other entry keeps its
stored scores, which are bit-identical to a recompute: its cached
forces only move through an invalidation (which makes it dirty) or an
``S`` bump of a type it touches (which it subscribes to).

Exactness of the fold
---------------------
The scan-order fold accepts a candidate iff its score strictly exceeds
``best + 1e-12``.  By induction the running ``best`` never drops more
than the epsilon below the prefix maximum, so an accepted score
strictly exceeds every earlier score: only strict prefix maxima can be
accepted, and replaying the fold over just those is exact.  The engine
finds them with one vectorized ``np.maximum.accumulate`` over the
persistent scores.

Counters
--------
Each :class:`EntryRecord` remembers how many ``force_cache_hits`` a
skipped scan of its entry contributes (every candidate of a clean entry
probes as a hit), aggregated in ``sum_skip_hits``, so a scan charges
skipped entries in O(rescored) and the telemetry follows the per-probe
model; ``selection_rescored`` / ``selection_skipped`` count the
scoreboard's own work split per scan.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

__all__ = ["EntryRecord", "SelectionScoreboard"]


class EntryRecord:
    """Bookkeeping of one entry between rescores.

    ``skip_hits`` is the exact number of ``force_cache_hits`` a skipped
    scan contributes; ``touched_types`` are the balanced global types
    whose ``S`` bump stales the entry's scores.
    """

    __slots__ = ("skip_hits", "touched_types")

    def __init__(self) -> None:
        self.skip_hits = 0
        self.touched_types: Tuple[str, ...] = ()


class SelectionScoreboard:
    """Per-entry subscriptions and skip-hit shares of the dirty cone."""

    def __init__(self, n_entries: int) -> None:
        self.records: List[EntryRecord] = [EntryRecord() for _ in range(n_entries)]
        #: Entries subscribed to each balanced type: exactly those whose
        #: scores go stale when the type's ``S`` version bumps.
        self.subscribers: Dict[str, Set[int]] = {}
        #: ``skip_hits`` summed over all records, maintained by
        #: :meth:`store`, so a scan charges skipped entries in
        #: O(rescored) not O(entries).
        self.sum_skip_hits = 0

    def store(
        self,
        index: int,
        *,
        skip_hits: int,
        touched_types: Iterable[str],
    ) -> None:
        """Refresh entry ``index``'s skip-hit share and subscriptions."""
        record = self.records[index]
        self.sum_skip_hits += skip_hits - record.skip_hits
        new_types = tuple(touched_types)
        if new_types != record.touched_types:
            for type_name in record.touched_types:
                subscribed = self.subscribers.get(type_name)
                if subscribed is not None:
                    subscribed.discard(index)
            for type_name in new_types:
                self.subscribers.setdefault(type_name, set()).add(index)
            record.touched_types = new_types
        record.skip_hits = skip_hits

    def rescore_set(
        self, dirty: Iterable[int], bumped_types: Iterable[str]
    ) -> List[int]:
        """Entries whose scores may be stale: dirty cone + S-bump cone."""
        stale: Set[int] = set(dirty)
        for type_name in bumped_types:
            subscribed = self.subscribers.get(type_name)
            if subscribed:
                stale.update(subscribed)
        return sorted(stale)
