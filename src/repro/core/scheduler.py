"""Step (S3): coupled modified IFDS over all blocks of the system (§5).

All blocks of all processes are scheduled *simultaneously*: a partial
solution is the set of time frames of every operation in the system, and
each iteration performs one IFDS gradual frame reduction somewhere in the
system.  The force of a tentative placement combines:

* for **local** resource types — the classic weighted Hooke force on the
  block's own distribution graph (eqs. 4-6);
* for **global** resource types — the force on the *balanced system
  distribution*: the block's displaced distribution is modulo-max
  transformed (eq. 7, §5.1 periodical alignment), maximized with the
  other blocks of the same process (eq. 9) and summed over the sharing
  processes (§5.2 global balancing).  Displacements hidden below a slot
  maximum cost nothing, which aligns operations of a global type onto the
  already-authorized period slots.

Both modification parts can be disabled independently for ablations.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import SchedulingError
from ..ir.process import Block, Process, SystemSpec
from ..obs import FORCE_EVALUATIONS, SCHEDULER_ITERATIONS, as_tracer, get_logger
from ..obs import counters as _ambient
from ..obs.audit import (
    CACHE_ASSEMBLED,
    CACHE_FRESH,
    CACHE_HIT,
    CACHE_UNCACHED,
    CandidateAudit,
    DecisionAudit,
)
from ..obs.counters import (
    AUDIT_DECISIONS,
    FORCE_CACHE_ASSEMBLIES,
    FORCE_CACHE_HITS,
    FORCE_CACHE_MISSES,
    SELECTION_RESCORED,
    SELECTION_SKIPPED,
    count,
    observe_many,
)
from ..obs.events import EVENT_COMMIT, EVENT_DEGRADE, EVENT_REDUCTION
from ..obs.metrics import (
    CANDIDATES_SCANNED,
    FORCE_EVAL_SECONDS,
    FRAMES_REMAINING,
    REDUCTION_SCORE,
    SELECT_SECONDS,
)
from ..resources.assignment import ResourceAssignment
from ..resources.library import ResourceLibrary
from ..scheduling.fallback import degraded_block_schedule, frames_state_hash
from ..scheduling.forces import DEFAULT_LOOKAHEAD, force_from_deltas, hooke_force
from ..scheduling.kernels import (
    DeltaBatch,
    guarded_footprint_ops,
    row_dots,
    row_self_dots,
)
from ..scheduling.schedule import BlockSchedule
from ..scheduling.scoreboard import SelectionScoreboard, prefix_maxima_positions
from ..scheduling.selection_cache import BlockSelectionCache
from ..scheduling.state import BlockState, ReductionEffect
from ..validation.budget import RunBudget
from .modulo import modulo_max, modulo_max_rows
from .periods import PeriodAssignment
from .result import SystemSchedule

_log = get_logger(__name__)


@dataclass
class _Entry:
    """One block being scheduled, with its system coordinates.

    ``scalar_ops`` (kernel mode only) holds the operations whose force
    footprint contains a guarded type; they always evaluate through the
    scalar reference machinery, in both kernel and scalar modes.
    """

    process_name: str
    block: Block
    state: BlockState
    scalar_ops: frozenset = frozenset()
    #: ``(frames.version(), hash)`` memo for ``_system_state_hash``; the
    #: frame version pins exactly when the hash can be reused.
    hash_memo: Optional[Tuple[int, int]] = None


class _CachedScore:
    """Memoized selection forces of one operation at both frame ends.

    ``terms_*`` hold the *force recipe* of each tentative placement: an
    ordered list of per-type terms in which purely-local types are frozen
    scalars and globally balanced types keep their system displacement
    ``delta_S`` (eq. 9 minus the old process maximum).  The recipe stays
    valid as long as the op's own block and its same-process siblings are
    untouched; when only the system distribution ``S`` moved (a commit in
    *another* process), the final force is re-assembled from the recipe
    with two period-length dot products instead of a full re-evaluation.
    ``terms_* is None`` marks a purely-local placement whose force is
    constant until invalidated.
    """

    __slots__ = (
        "force_low",
        "force_high",
        "terms_low",
        "terms_high",
        "global_types",
        "versions",
    )

    def __init__(self, force_low, force_high, terms_low, terms_high, global_types, versions):
        self.force_low = force_low
        self.force_high = force_high
        self.terms_low = terms_low
        self.terms_high = terms_high
        self.global_types = global_types
        self.versions = versions


#: Marker stored in a :class:`BlockSelectionCache` for operations whose
#: selection state lives in the :class:`_SystemKernel` flat arrays.  The
#: cache keeps exactly one entry per evaluated operation either way, so
#: hit/miss/invalidation accounting is identical to the scalar mode.
_KERNEL_EVALUATED = object()


class _SystemKernel:
    """Persistent array-backed selection engine (kernel mode).

    Replaces the per-candidate scalar fold of
    :meth:`ModuloSystemScheduler._select_reduction` with flat
    system-wide arrays.  Every operation owns one *slot*, and each of
    its two frame-end forces is decomposed as::

        force = const + sum over balanced types T of (w * delta_S_T) . S_T

    ``const`` freezes everything independent of the system distribution
    ``S`` — local and unbalanced Hooke terms plus the
    ``alpha * delta_S . delta_S`` look-ahead parts — while the
    pre-weighted ``w * delta_S`` vectors live as rows of one per-type
    matrix ``G`` (row 0 is a permanent all-zero sentinel for slots that
    do not touch the type).  A scan is then three vectorized steps:

    * types whose ``S`` moved re-dot their whole ``G`` matrix against
      the new ``S`` in one matrix–vector product;
    * every slot's forces refold as ``const + gathered dots``;
    * scores ``eta * |F_low - F_high|`` come from one gathered
      elementwise pass, folded in scan order with the scalar epsilons.

    Only invalidated operations do real work: their frame-end deltas are
    built in one :class:`~repro.scheduling.kernels.DeltaBatch` per block
    and folded per displaced type with batched matrix products.

    Parity with the scalar scan is kept exactly where it is observable:
    the per-block :class:`BlockSelectionCache` stores one marker per
    evaluated operation (hits, misses, invalidations, and dirty-set
    sizes are unchanged); the staleness mask counts one
    ``force_cache_assemblies`` per cached operation whose folded force
    predates an ``S`` bump of a type it touches — the same set the
    scalar version-tuple comparison re-assembles; and operations with a
    guarded force footprint keep using the scalar :class:`_CachedScore`
    machinery in both modes.  Decision parity is pinned by
    ``tests/core/test_kernel_parity.py``.
    """

    def __init__(
        self,
        scheduler: "ModuloSystemScheduler",
        entries: List[_Entry],
        coupling: "_GlobalCoupling",
        caches: List[BlockSelectionCache],
    ) -> None:
        self.scheduler = scheduler
        self.entries = entries
        self.coupling = coupling
        self.caches = caches
        self.lookahead = scheduler.lookahead
        self.weights = scheduler.weights
        self.alignment = scheduler.periodical_alignment
        self.balancing = scheduler.global_balancing

        self.slot_of: List[Dict[str, int]] = []
        n = 0
        for entry in entries:
            mapping: Dict[str, int] = {}
            for op_id in entry.state.graph.op_ids:
                mapping[op_id] = n
                n += 1
            self.slot_of.append(mapping)
        self.n_slots = n
        # Row 0 holds the low frame end, row 1 the high end: fusing the
        # two sides into (2, n) arrays halves the per-scan numpy call
        # count of the refold/gather phases.
        self._const = np.zeros((2, n), dtype=float)
        self._eta = np.ones(n, dtype=float)
        self._fold_stamp = np.zeros(n, dtype=np.int64)
        self._force = np.empty((2, n), dtype=float)
        # Balanced types currently holding a G row for each slot's two
        # sides, so a re-evaluation can free exactly its own rows.
        self._assigned_low: List[Tuple[str, ...]] = [()] * n
        self._assigned_high: List[Tuple[str, ...]] = [()] * n
        # Per entry: type order -> its balanced types (those holding a
        # G row), a static property of the entry's process.
        self._balanced_part: List[Dict[Tuple[str, ...], Tuple[str, ...]]] = [
            {} for _ in entries
        ]
        self._scan_no = 0

        # Per-entry candidate lists persist between scans; a commit only
        # perturbs the committed entry (and, for a non-clean scope, its
        # same-process siblings), which :meth:`note_commit` marks dirty.
        # Clean entries skip classification wholesale: their candidates,
        # guarded jobs, and hit totals are unchanged by construction.
        self._dirty: List[bool] = [True] * len(entries)
        self._cand_ops: List[List[str]] = [[] for _ in entries]
        self._cand_slots: List[np.ndarray] = [
            np.empty(0, dtype=np.intp) for _ in entries
        ]
        self._guarded_jobs: List[List[Tuple[str, int]]] = [[] for _ in entries]
        self._hit_counts: List[int] = [0] * len(entries)
        # Scoreboard mode: persistent per-entry incumbents (see
        # repro.scheduling.scoreboard); only the commit's dirty cone is
        # rescored per scan, everything else folds from the records.
        self.scoreboard = (
            SelectionScoreboard(len(entries))
            if scheduler.use_scoreboard
            else None
        )
        self._dirty_set = set(range(len(entries)))
        # Per-entry staleness-active slots (mobile, non-guarded) and the
        # candidate-list positions of the guarded jobs, rebuilt whenever
        # the entry is reclassified.
        self._entry_act: List[np.ndarray] = [
            np.empty(0, dtype=np.intp) for _ in entries
        ]
        self._guarded_pos: List[List[Tuple[str, int, int]]] = [
            [] for _ in entries
        ]
        # Balanced types holding a G row among each entry's act slots —
        # the act-derived half of its record's ``touched_types``.  Kept
        # as a sorted list, recomputed on (re)classification from the
        # per-slot ``_assigned_*`` tuples, which mirror ``gslot > 0``.
        self._act_types: List[List[str]] = [[] for _ in entries]
        # Scoreboard mode keeps the scored state *per slot* between
        # scans: the winner is then extracted with the same vectorized
        # prefix-maxima pass as the full scan, over a persistent
        # concatenated candidate-slot array maintained by splicing only
        # reclassified entries' spans (``_sb_splices``).
        self._scores_g = np.zeros(n, dtype=float)
        self._sb_idx = np.empty(0, dtype=np.intp)
        self._sb_sizes = np.zeros(len(entries), dtype=np.int64)
        self._sb_bounds = np.zeros(len(entries), dtype=np.int64)
        self._sb_splices: List[int] = []
        self._mobile = np.zeros(n, dtype=bool)
        self._guarded_mask = np.zeros(n, dtype=bool)
        self._has_guards = any(entry.scalar_ops for entry in entries)
        # Scan-order cache: the concatenated candidate slots, their owner
        # entries, and the staleness-active mask only change when an op
        # becomes fixed (144 events across ~1000 scans at 12 processes).
        self._order_dirty = True
        self._sel_owners: List[int] = []
        self._sel_idx = np.empty(0, dtype=np.intp)
        self._act_idx = np.empty(0, dtype=np.intp)
        for index, entry in enumerate(entries):
            frames = entry.state.frames
            slots_map = self.slot_of[index]
            scalar_ops = entry.scalar_ops
            for op_id in entry.state.graph.op_ids:
                slot = slots_map[op_id]
                self._mobile[slot] = not frames.is_fixed(op_id)
                if op_id in scalar_ops:
                    self._guarded_mask[slot] = True

        # Sorted so cross-run accumulation order never depends on set
        # (hash) iteration order.
        balanced = (
            sorted(coupling.assignment.global_types)
            if self.alignment and self.balancing
            else []
        )
        self._balanced_types: List[str] = balanced
        self._g: Dict[str, np.ndarray] = {}
        self._gdots: Dict[str, np.ndarray] = {}
        self._top: Dict[str, int] = {}
        self._free: Dict[str, List[int]] = {}
        self._gslot: Dict[str, np.ndarray] = {}
        self._seen_version: Dict[str, int] = {}
        self._changed_scan: Dict[str, int] = {}
        for type_name in balanced:
            period = coupling.period(type_name)
            self._g[type_name] = np.zeros((16, period), dtype=float)
            self._gdots[type_name] = np.zeros(16, dtype=float)
            self._top[type_name] = 1  # row 0: permanent all-zero sentinel
            self._free[type_name] = []
            self._gslot[type_name] = np.zeros((2, n), dtype=np.int64)
            self._seen_version[type_name] = coupling.s_version(type_name)
            self._changed_scan[type_name] = 0

    # -- scan ----------------------------------------------------------
    def select(
        self, *, collect: Optional[list] = None, want_detail: bool = False
    ) -> Optional[Tuple[int, str, bool, float, int, Optional[Tuple]]]:
        """One selection scan; same contract as ``_select_reduction``."""
        if self.scoreboard is not None:
            return self._select_scoreboard(collect, want_detail)
        track = want_detail or collect is not None
        coupling = self.coupling
        self._scan_no += 1
        scan_no = self._scan_no

        # (1) Sync to S: every type whose system distribution moved
        # since the last scan re-dots its G matrix in one matvec.
        for type_name in self._balanced_types:
            version = coupling.s_version(type_name)
            if version != self._seen_version[type_name]:
                self._seen_version[type_name] = version
                self._changed_scan[type_name] = scan_no
                top = self._top[type_name]
                if top > 1:
                    np.matmul(
                        self._g[type_name][:top],
                        coupling.system_distribution(type_name),
                        out=self._gdots[type_name][:top],
                    )

        # (2) Classify the candidates of *dirty* entries: marker present
        # -> hit, absent -> fresh (batch-evaluated per block), guarded
        # footprint -> scalar job.  Clean entries reuse last scan's
        # candidate lists — every non-guarded candidate is a hit by
        # construction — so aggregated hit/miss totals still equal the
        # scalar per-probe counts.
        kinds: Optional[Dict[int, str]] = {} if track else None
        for index, entry in enumerate(self.entries):
            if not self._dirty[index]:
                hits = self._hit_counts[index]
                if hits:
                    count(FORCE_CACHE_HITS, hits)
                continue
            self._dirty[index] = False
            unfixed = entry.state.frames.unfixed()
            self._cand_ops[index] = unfixed
            store = self.caches[index]._store
            slots_map = self.slot_of[index]
            scalar_ops = entry.scalar_ops
            slots = np.empty(len(unfixed), dtype=np.intp)
            guarded: List[Tuple[str, int]] = []
            fresh_ops: List[str] = []
            hits = 0
            for pos, op_id in enumerate(unfixed):
                slot = slots_map[op_id]
                slots[pos] = slot
                if op_id in scalar_ops:
                    guarded.append((op_id, slot))
                elif op_id in store:
                    hits += 1
                else:
                    fresh_ops.append(op_id)
                    store[op_id] = _KERNEL_EVALUATED
                    if kinds is not None:
                        kinds[slot] = CACHE_FRESH
            self._cand_slots[index] = slots
            self._guarded_jobs[index] = guarded
            # Once this entry is clean every non-guarded candidate —
            # fresh ones included — probes as a hit.
            self._hit_counts[index] = hits + len(fresh_ops)
            if hits:
                count(FORCE_CACHE_HITS, hits)
            if fresh_ops:
                count(FORCE_CACHE_MISSES, len(fresh_ops))
                self._fresh_eval(index, entry, fresh_ops, scan_no)

        if self._order_dirty:
            self._order_dirty = False
            self._sel_owners = [
                index
                for index in range(len(self.entries))
                if self._cand_slots[index].size
            ]
            self._sel_idx = (
                np.concatenate(
                    [self._cand_slots[index] for index in self._sel_owners]
                )
                if self._sel_owners
                else np.empty(0, dtype=np.intp)
            )
            self._act_idx = np.nonzero(self._mobile & ~self._guarded_mask)[0]

        # (3) Staleness: one assembly per cached op holding a G row of
        # a type whose S moved after the op's last fold — exactly the
        # set the scalar version-tuple comparison re-assembles.  Freshly
        # evaluated slots carry this scan's stamp and drop out; guarded
        # and fixed slots are masked off.
        act_idx = self._act_idx if self._balanced_types else None
        if act_idx is not None and act_idx.size:
            stamps = self._fold_stamp[act_idx]
            min_stamp = int(stamps.min())
            stale = None
            for type_name in self._balanced_types:
                changed = self._changed_scan[type_name]
                if changed <= min_stamp:
                    continue
                has_row = (self._gslot[type_name][:, act_idx] > 0).any(axis=0)
                mask = has_row & (stamps < changed)
                stale = mask if stale is None else (stale | mask)
            if stale is not None:
                assembled = int(stale.sum())
                if assembled:
                    count(FORCE_CACHE_ASSEMBLIES, assembled)
                    self._fold_stamp[act_idx[stale]] = scan_no
                    if kinds is not None:
                        for slot in act_idx[stale].tolist():
                            kinds[slot] = CACHE_ASSEMBLED

        # (4) Refold every slot: constants plus the gathered per-type
        # dots (the sentinel row contributes an exact 0.0).
        np.copyto(self._force, self._const)
        for type_name in self._balanced_types:
            if self._top[type_name] > 1:
                self._force += self._gdots[type_name][self._gslot[type_name]]

        # (5) Guarded ops: scalar _CachedScore machinery, written into
        # their slots after the wholesale refold.  Probed every scan so
        # the cache's own hit/miss accounting matches the scalar path.
        scheduler = self.scheduler
        for index, entry in enumerate(self.entries):
            jobs = self._guarded_jobs[index]
            if not jobs:
                continue
            cache = self.caches[index]
            frames = entry.state.frames
            for op_id, slot in jobs:
                cached = cache.get(op_id)
                kind = CACHE_HIT
                if cached is None:
                    lo, hi = frames.frame(op_id)
                    cached = scheduler._evaluate_cached(
                        index, entry, coupling, op_id, lo, hi
                    )
                    cache.put(op_id, cached)
                    kind = CACHE_FRESH
                elif cached.global_types:
                    versions = tuple(
                        coupling.s_version(t) for t in cached.global_types
                    )
                    if versions != cached.versions:
                        count(FORCE_CACHE_ASSEMBLIES)
                        if cached.terms_low is not None:
                            cached.force_low = scheduler._assemble(
                                cached.terms_low, coupling
                            )
                        if cached.terms_high is not None:
                            cached.force_high = scheduler._assemble(
                                cached.terms_high, coupling
                            )
                        cached.versions = versions
                        kind = CACHE_ASSEMBLED
                self._force[0, slot] = cached.force_low
                self._force[1, slot] = cached.force_high
                lo, hi = frames.frame(op_id)
                self._eta[slot] = 1.0 if hi - lo + 1 <= 2 else 0.5
                if kinds is not None:
                    kinds[slot] = kind

        # (6) Score and fold in scan order with the scalar epsilons.
        owners = self._sel_owners
        if not owners:
            return None
        idx = self._sel_idx
        fpair = self._force[:, idx]
        flows = fpair[0]
        fhighs = fpair[1]
        scores = self._eta[idx] * np.abs(flows - fhighs)
        # The scan-order hysteresis fold (``score > best + 1e-12``) only
        # ever accepts strict prefix maxima: the running best never drops
        # more than the epsilon below the prefix maximum, so an accepted
        # score strictly exceeds every earlier one.  Replaying the fold
        # over just that (short) subsequence is therefore exact.
        total = scores.shape[0]
        if total > 1:
            prefix = np.maximum.accumulate(scores[:-1])
            front = np.nonzero(scores[1:] > prefix)[0]
            positions = [0] + (front + 1).tolist()
        else:
            positions = [0]
        best_pos = -1
        best_score = None
        for pos in positions:
            score = float(scores[pos])
            if best_score is None or score > best_score + 1e-12:
                best_score = score
                best_pos = pos
        if collect is not None:
            flow_list = flows.tolist()
            fhigh_list = fhighs.tolist()
            score_list = scores.tolist()
            idx_list = idx.tolist()
            pos = 0
            for index in owners:
                entry = self.entries[index]
                for op_id in self._cand_ops[index]:
                    collect.append(
                        CandidateAudit(
                            process=entry.process_name,
                            block=entry.block.name,
                            op=op_id,
                            force_low=flow_list[pos],
                            force_high=fhigh_list[pos],
                            score=score_list[pos],
                            cache=kinds.get(idx_list[pos], CACHE_HIT),
                        )
                    )
                    pos += 1
        best_entry = -1
        offset = best_pos
        for index in owners:
            size = self._cand_slots[index].size
            if offset < size:
                best_entry = index
                break
            offset -= size
        force_low = float(flows[best_pos])
        force_high = float(fhighs[best_pos])
        detail = None
        if want_detail:
            detail = (
                force_low,
                force_high,
                kinds.get(int(idx[best_pos]), CACHE_HIT),
            )
        assert best_score is not None
        return (
            best_entry,
            self._cand_ops[best_entry][offset],
            force_low > force_high + 1e-12,
            float(best_score),
            total,
            detail,
        )

    # -- scoreboard scan ------------------------------------------------
    def _select_scoreboard(
        self, collect: Optional[list], want_detail: bool
    ) -> Optional[Tuple[int, str, bool, float, int, Optional[Tuple]]]:
        """Dirty-cone scan: rescore only perturbed entries, fold the rest
        from their cached incumbents.

        Exactness and counter parity with :meth:`select` rest on three
        facts (docs/performance.md, "Selection scoreboard"):

        * a clean entry's forces are bit-unchanged — its constants moved
          only through a fresh evaluation (needs a dirty entry) and its
          per-type dots only through an ``S`` bump of a touched type
          (which puts the entry in the rescore set via its subscription);
        * its counters are unchanged too: every candidate probe would be
          a hit (charged in bulk from the record) and the staleness mask
          over its slots would be empty, so zero assemblies are lost;
        * the hysteresis fold over the concatenated per-entry strict
          prefix maxima is bit-identical to the full scan-order fold.

        ``collect`` (audit candidate capture) needs every candidate's
        force, so it degrades to rescore-all — rescoring a clean entry
        re-counts exactly the same hits and zero assemblies, keeping the
        telemetry contract.

        The rescored entries are processed as *one* batch: their slots
        concatenate into a single index array and the staleness mask,
        the refold, and the score pass each run once over it — the same
        elementwise operations as the full scan, restricted to the
        rescored columns, so every per-slot value stays bit-identical
        while the per-scan numpy call count stays constant instead of
        linear in the rescore-set size.
        """
        track = want_detail or collect is not None
        coupling = self.coupling
        self._scan_no += 1
        scan_no = self._scan_no

        # (1) Sync to S, remembering which types bumped this scan.
        bumped: List[str] = []
        for type_name in self._balanced_types:
            version = coupling.s_version(type_name)
            if version != self._seen_version[type_name]:
                self._seen_version[type_name] = version
                self._changed_scan[type_name] = scan_no
                bumped.append(type_name)
                top = self._top[type_name]
                if top > 1:
                    np.matmul(
                        self._g[type_name][:top],
                        coupling.system_distribution(type_name),
                        out=self._gdots[type_name][:top],
                    )

        # (2) The rescore set: the commit's dirty cone plus every entry
        # subscribed to a bumped type.
        board = self.scoreboard
        assert board is not None
        if collect is not None:
            rescore = list(range(len(self.entries)))
        else:
            rescore = board.rescore_set(self._dirty_set, bumped)

        # (3) Charge the hits skipped entries would have probed, in one
        # aggregated count: total over all records minus the rescored
        # entries' shares (they count their own probes live).
        records = board.records
        skip_hits = board.sum_skip_hits
        for index in rescore:
            skip_hits -= records[index].skip_hits
        if skip_hits:
            count(FORCE_CACHE_HITS, skip_hits)

        # (4) Classify dirty rescored entries — the same python pass as
        # the full scan, restricted to the rescore set; clean rescored
        # entries just re-count their candidate probes as hits.  Only
        # the classified (dirty) entries need their records restored
        # afterwards: a clean rescored entry's counters, subscriptions,
        # and candidate span are all provably unchanged.
        kinds: Optional[Dict[int, str]] = {} if track else None
        classified: List[int] = []
        for index in rescore:
            if self._dirty[index]:
                self._classify_entry(index, scan_no, kinds)
                classified.append(index)
            else:
                hits = self._hit_counts[index]
                if hits:
                    count(FORCE_CACHE_HITS, hits)
        self._dirty_set.clear()
        count(SELECTION_RESCORED, len(rescore))
        count(SELECTION_SKIPPED, len(self.entries) - len(rescore))

        # (4b) Splice reclassified spans whose candidate count changed
        # into the persistent concatenated slot array (one pass, in
        # entry order); wholesale rebuild when many moved at once.
        splices = self._sb_splices
        if splices:
            sizes = self._sb_sizes
            cand_slots = self._cand_slots
            if len(splices) > 16:
                arrays = [slots for slots in cand_slots if slots.size]
                self._sb_idx = (
                    np.concatenate(arrays)
                    if arrays
                    else np.empty(0, dtype=np.intp)
                )
                for i, slots in enumerate(cand_slots):
                    sizes[i] = slots.size
            else:
                bounds = self._sb_bounds
                idx_arr = self._sb_idx
                parts: List[np.ndarray] = []
                prev = 0
                for index in splices:
                    start = int(bounds[index - 1]) if index else 0
                    if start > prev:
                        parts.append(idx_arr[prev:start])
                    new_arr = cand_slots[index]
                    if new_arr.size:
                        parts.append(new_arr)
                    prev = int(bounds[index])
                    sizes[index] = new_arr.size
                parts.append(idx_arr[prev:])
                self._sb_idx = np.concatenate(parts)
            np.cumsum(sizes, out=self._sb_bounds)
            self._sb_splices = []

        # (5) Concatenate the rescored entries' candidate and staleness
        # index arrays (slots partition by entry, so per-slot work and
        # counter totals decompose exactly).
        if len(rescore) == 1:
            only = rescore[0]
            cat_slots = self._cand_slots[only]
            cat_act = self._entry_act[only]
        elif rescore:
            cat_slots = np.concatenate(
                [self._cand_slots[index] for index in rescore]
            )
            cat_act = np.concatenate(
                [self._entry_act[index] for index in rescore]
            )
        else:
            cat_slots = cat_act = np.empty(0, dtype=np.intp)

        # The balanced types with a G row anywhere among the rescored
        # slots: the union of the rescored entries' act-derived types.
        # Every other type contributes only the all-zero sentinel row to
        # the staleness mask and the refold, so restricting both loops
        # to this union is exact.
        act_union: set = set()
        for index in rescore:
            act_union.update(self._act_types[index])

        # (6) Staleness over the rescored act slots — the full scan's
        # mask restricted to those columns (a skipped entry's share is
        # provably empty, see above).
        if act_union and cat_act.size:
            stamps = self._fold_stamp[cat_act]
            min_stamp = int(stamps.min())
            stale = None
            for type_name in self._balanced_types:
                changed = self._changed_scan[type_name]
                if changed <= min_stamp or type_name not in act_union:
                    continue
                has_row = (self._gslot[type_name][:, cat_act] > 0).any(axis=0)
                mask = has_row & (stamps < changed)
                stale = mask if stale is None else (stale | mask)
            if stale is not None:
                assembled = int(stale.sum())
                if assembled:
                    count(FORCE_CACHE_ASSEMBLIES, assembled)
                    self._fold_stamp[cat_act[stale]] = scan_no
                    if kinds is not None:
                        for slot in cat_act[stale].tolist():
                            kinds[slot] = CACHE_ASSEMBLED

        # (7) Refold the rescored slots: same additions, same type order
        # as the wholesale refold — elementwise bit-identical.
        guard_types: Dict[int, set] = {}
        if cat_slots.size:
            force = self._const[:, cat_slots]
            for type_name in self._balanced_types:
                if type_name in act_union and self._top[type_name] > 1:
                    force += self._gdots[type_name][
                        self._gslot[type_name][:, cat_slots]
                    ]

            # (8) Guarded ops: scalar machinery written over the refold.
            scheduler = self.scheduler
            base = 0
            for index in rescore if self._has_guards else ():
                jobs = self._guarded_pos[index]
                if jobs:
                    cache = self.caches[index]
                    frames = self.entries[index].state.frames
                    gset = guard_types[index] = set()
                    for op_id, slot, pos in jobs:
                        cached = cache.get(op_id)
                        kind = CACHE_HIT
                        if cached is None:
                            lo, hi = frames.frame(op_id)
                            cached = scheduler._evaluate_cached(
                                index,
                                self.entries[index],
                                coupling,
                                op_id,
                                lo,
                                hi,
                            )
                            cache.put(op_id, cached)
                            kind = CACHE_FRESH
                        elif cached.global_types:
                            versions = tuple(
                                coupling.s_version(t)
                                for t in cached.global_types
                            )
                            if versions != cached.versions:
                                count(FORCE_CACHE_ASSEMBLIES)
                                if cached.terms_low is not None:
                                    cached.force_low = scheduler._assemble(
                                        cached.terms_low, coupling
                                    )
                                if cached.terms_high is not None:
                                    cached.force_high = scheduler._assemble(
                                        cached.terms_high, coupling
                                    )
                                cached.versions = versions
                                kind = CACHE_ASSEMBLED
                        force[0, base + pos] = cached.force_low
                        force[1, base + pos] = cached.force_high
                        lo, hi = frames.frame(op_id)
                        self._eta[slot] = 1.0 if hi - lo + 1 <= 2 else 0.5
                        gset.update(cached.global_types)
                        if kinds is not None:
                            kinds[slot] = kind
                base += self._cand_slots[index].size

            # (9) Score the rescored columns once and scatter forces and
            # scores into the persistent per-slot arrays — the same
            # elementwise operations the full scan applies, so every
            # stored value is bit-identical to a full recompute; the
            # skipped columns provably kept theirs.
            flows = force[0]
            fhighs = force[1]
            scores = self._eta[cat_slots] * np.abs(flows - fhighs)
            self._force[:, cat_slots] = force
            self._scores_g[cat_slots] = scores

        # Record bookkeeping for the classified entries only: a clean
        # rescored entry's candidate count, skip-hit share, and type
        # subscriptions cannot have changed (its candidates and cached
        # recipes are untouched; ``global_types`` of a guarded op is
        # static while its cache entry lives).
        for index in classified:
            touched = set(self._act_types[index])
            gset = guard_types.get(index)
            if gset:
                touched.update(gset)
            board.store(
                index,
                n_candidates=self._cand_slots[index].size,
                skip_hits=self._hit_counts[index]
                + len(self._guarded_jobs[index]),
                touched_types=sorted(touched),
                scan_no=scan_no,
            )

        if collect is not None and cat_slots.size:
            score_list = scores.tolist()
            flow_list = flows.tolist()
            fhigh_list = fhighs.tolist()
            slot_list = cat_slots.tolist()
            base = 0
            for index in rescore:
                entry = self.entries[index]
                for pos, op_id in enumerate(self._cand_ops[index]):
                    collect.append(
                        CandidateAudit(
                            process=entry.process_name,
                            block=entry.block.name,
                            op=op_id,
                            force_low=flow_list[base + pos],
                            force_high=fhigh_list[base + pos],
                            score=score_list[base + pos],
                            cache=(
                                kinds.get(slot_list[base + pos], CACHE_HIT)
                                if kinds is not None
                                else CACHE_HIT
                            ),
                        )
                    )
                base += self._cand_slots[index].size

        # (10) Winner extraction: the full scan's vectorized strict
        # prefix-maxima fold, over the persistent gathered scores.
        idx = self._sb_idx
        total = int(idx.size)
        if not total:
            return None
        scores_v = self._scores_g[idx]
        if total > 1:
            prefix = np.maximum.accumulate(scores_v[:-1])
            front = np.nonzero(scores_v[1:] > prefix)[0]
            positions = [0] + (front + 1).tolist()
        else:
            positions = [0]
        best_pos = -1
        best_score = None
        for pos in positions:
            score = float(scores_v[pos])
            if best_score is None or score > best_score + 1e-12:
                best_score = score
                best_pos = pos
        best_entry = int(
            np.searchsorted(self._sb_bounds, best_pos, side="right")
        )
        start = int(self._sb_bounds[best_entry - 1]) if best_entry else 0
        slot = int(idx[best_pos])
        force_low = float(self._force[0, slot])
        force_high = float(self._force[1, slot])
        detail = None
        if want_detail:
            kind = kinds.get(slot, CACHE_HIT) if kinds is not None else CACHE_HIT
            detail = (force_low, force_high, kind)
        assert best_score is not None
        return (
            best_entry,
            self._cand_ops[best_entry][best_pos - start],
            force_low > force_high + 1e-12,
            best_score,
            total,
            detail,
        )

    def _classify_entry(
        self,
        index: int,
        scan_no: int,
        kinds: Optional[Dict[int, str]],
    ) -> None:
        """Reclassify one dirty entry's candidates (scoreboard mode).

        The same python pass as the full scan's step 2 — probe counting,
        fresh batch evaluation, guarded-job split — plus the candidate
        *positions* of the guarded jobs and the act-derived touched-type
        list the batched rescore consumes.
        """
        entry = self.entries[index]
        self._dirty[index] = False
        unfixed = entry.state.frames.unfixed()
        self._cand_ops[index] = unfixed
        store = self.caches[index]._store
        slots_map = self.slot_of[index]
        scalar_ops = entry.scalar_ops
        slots = np.empty(len(unfixed), dtype=np.intp)
        act_list: List[int] = []
        guarded: List[Tuple[str, int]] = []
        guarded_pos: List[Tuple[str, int, int]] = []
        fresh_ops: List[str] = []
        hits = 0
        for pos, op_id in enumerate(unfixed):
            slot = slots_map[op_id]
            slots[pos] = slot
            if op_id in scalar_ops:
                guarded.append((op_id, slot))
                guarded_pos.append((op_id, slot, pos))
                continue
            act_list.append(slot)
            if op_id in store:
                hits += 1
            else:
                fresh_ops.append(op_id)
                store[op_id] = _KERNEL_EVALUATED
                if kinds is not None:
                    kinds[slot] = CACHE_FRESH
        if slots.size != self._sb_sizes[index]:
            # Candidates only ever disappear (commits fix ops in their
            # own block), so an unchanged count means an unchanged span.
            self._sb_splices.append(index)
        self._cand_slots[index] = slots
        self._entry_act[index] = np.asarray(act_list, dtype=np.intp)
        self._guarded_jobs[index] = guarded
        self._guarded_pos[index] = guarded_pos
        self._hit_counts[index] = hits + len(fresh_ops)
        if hits:
            count(FORCE_CACHE_HITS, hits)
        if fresh_ops:
            count(FORCE_CACHE_MISSES, len(fresh_ops))
            self._fresh_eval(index, entry, fresh_ops, scan_no)
        # Act-derived touched types, read *after* the fresh evaluation
        # reassigned G rows: ``_assigned_*[slot]`` is nonempty exactly
        # when ``gslot[type][:, slot] > 0`` for the type, so this union
        # equals the full scan's per-type ``(gslot[:, act] > 0).any()``.
        assigned_low = self._assigned_low
        assigned_high = self._assigned_high
        acts: set = set()
        for slot in act_list:
            low = assigned_low[slot]
            if low:
                acts.update(low)
            high = assigned_high[slot]
            if high:
                acts.update(high)
        self._act_types[index] = sorted(acts)

    def note_commit(
        self,
        entry_index: int,
        effect: ReductionEffect,
        scopes: Mapping[str, str],
    ) -> None:
        """Record a committed reduction, mirroring ``_invalidate_caches``.

        The committed entry always reclassifies next scan; same-process
        siblings only do when the commit moved any shared type's ``Q``
        (a non-``clean`` scope) — exactly the condition under which the
        scalar path invalidates their stores.
        """
        frames = self.entries[entry_index].state.frames
        slots_map = self.slot_of[entry_index]
        for op_id in effect.changed_ops:
            if frames.is_fixed(op_id):
                slot = slots_map[op_id]
                if self._mobile[slot]:
                    self._mobile[slot] = False
                    self._order_dirty = True
        self._dirty[entry_index] = True
        self._dirty_set.add(entry_index)
        if not (self.alignment and self.balancing):
            return
        if all(scope == "clean" for scope in scopes.values()):
            return
        process_name = self.entries[entry_index].process_name
        for index in self.coupling.process_entries(process_name):
            if index != entry_index:
                self._dirty[index] = True
                self._dirty_set.add(index)

    # -- fresh evaluation ----------------------------------------------
    def _fresh_eval(
        self, index: int, entry: _Entry, fresh_ops: List[str], scan_no: int
    ) -> None:
        """Batch-evaluate both frame ends of a block's invalidated ops.

        One :class:`DeltaBatch` covers every (op, frame-end) pair; each
        displaced type folds its participating rows with batched matrix
        products, mirroring :meth:`ModuloSystemScheduler._force_terms`
        branch for branch.  Constants, ``w * delta_S`` rows, and their
        current-``S`` dots are written into the persistent arrays; the
        wholesale refold in :meth:`select` produces the forces.

        A pair's constant is the sum of its per-type values in type
        order; summing column by column of a (position × pair) matrix
        performs the same additions in the same order as a per-pair
        scalar loop.  A slot side whose balanced types are unchanged
        keeps its G rows and has them rewritten in place; freeing and
        re-allocating them would hand back the same row ids.
        """
        registry_active = _ambient._active is not None
        started = time.perf_counter() if registry_active else 0.0
        coupling = self.coupling
        state = entry.state
        frames = state.frames
        dist = state.dist
        lookahead = self.lookahead
        weights = self.weights
        process_name = entry.process_name
        slots_map = self.slot_of[index]
        pairs: List[Tuple[str, int]] = []
        slots: List[int] = []
        etas: List[float] = []
        for op_id in fresh_ops:
            lo, hi = frames.frame(op_id)
            pairs.append((op_id, lo))
            pairs.append((op_id, hi))
            slots.append(slots_map[op_id])
            etas.append(1.0 if hi - lo + 1 <= 2 else 0.5)
        batch = DeltaBatch(state, pairs)
        type_orders = batch.type_orders
        # columns[p, row]: the value of the type at position p of the
        # row's type order (0.0 past its end).
        columns = np.zeros((max(map(len, type_orders)), len(pairs)), dtype=float)
        # Balanced shared types: the pre-weighted delta_S rows of the
        # participants and their current-S dots.
        gvec_parts: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for type_name, matrix in batch.deltas.items():
            participants = batch.participants[type_name]
            deltas = matrix[participants]
            weight = 1.0 if weights is None else float(weights.get(type_name, 1.0))
            count(FORCE_EVALUATIONS, len(participants))
            if self.alignment and coupling.is_shared(process_name, type_name):
                period = coupling.period(type_name)
                # ``deltas`` is a fancy-gather copy, safe to fold the
                # current distribution into in place (a + b commutes).
                deltas += dist.array(type_name)
                q_new = modulo_max_rows(deltas, period)
                if not self.balancing:
                    q_old = coupling.block_q(index, type_name)
                    q_new -= q_old
                    vals = weight * (
                        row_dots(q_new, q_old)
                        + lookahead * row_self_dots(q_new)
                    )
                else:
                    others = coupling.other_blocks_max(index, type_name)
                    m_old = coupling.process_max(process_name, type_name)
                    np.maximum(others, q_new, out=q_new)
                    q_new -= m_old
                    delta_s = q_new
                    vals = (weight * lookahead) * row_self_dots(delta_s)
                    delta_s *= weight
                    gvec_parts[type_name] = (
                        delta_s,
                        row_dots(delta_s, coupling.system_distribution(type_name)),
                    )
            else:
                vals = weight * (
                    row_dots(deltas, dist.array(type_name))
                    + lookahead * row_self_dots(deltas)
                )
            columns[batch.positions[type_name], participants] = vals
        consts = np.zeros(len(pairs), dtype=float)
        for column in columns:
            consts += column

        # A slot side keeps its G rows when its balanced-type tuple is
        # unchanged.  Otherwise it releases the old rows and allocates
        # new ones, in row order: releasing and re-allocating an
        # unchanged side would hand back the very same ids, so the free
        # lists evolve exactly as if every side did.
        gslot = self._gslot
        balanced_part = self._balanced_part[index]
        balancing = self.alignment and self.balancing
        assigned_sides = (self._assigned_low, self._assigned_high)
        for row, order in enumerate(type_orders):
            new = balanced_part.get(order)
            if new is None:
                new = balanced_part[order] = tuple(
                    name
                    for name in order
                    if balancing and coupling.is_shared(process_name, name)
                )
            side = row & 1
            slot = slots[row >> 1]
            assigned = assigned_sides[side]
            old = assigned[slot]
            if new == old:
                continue
            for type_name in old:
                stale_rows = gslot[type_name]
                self._free[type_name].append(int(stale_rows[side, slot]))
                stale_rows[side, slot] = 0
            for type_name in new:
                gslot[type_name][side, slot] = self._alloc_row(type_name)
            assigned[slot] = new
        slots_arr = np.asarray(slots, dtype=np.intp)
        self._const[0, slots_arr] = consts[0::2]
        self._const[1, slots_arr] = consts[1::2]
        self._eta[slots_arr] = etas
        self._fold_stamp[slots_arr] = scan_no
        # Allocation may have grown the G arrays; read them afresh.
        for type_name, (weighted, gdot_vals) in gvec_parts.items():
            participants = batch.participants[type_name]
            ids = gslot[type_name][participants & 1, slots_arr[participants >> 1]]
            self._g[type_name][ids] = weighted
            self._gdots[type_name][ids] = gdot_vals
        if registry_active:
            rows = len(pairs)
            elapsed = time.perf_counter() - started
            observe_many(FORCE_EVAL_SECONDS, elapsed / rows, rows)

    def _alloc_row(self, type_name: str) -> int:
        """Next free G row of a type, growing the arrays by doubling."""
        free = self._free[type_name]
        if free:
            return free.pop()
        top = self._top[type_name]
        g = self._g[type_name]
        if top == g.shape[0]:
            grown = np.zeros((2 * top, g.shape[1]), dtype=float)
            grown[:top] = g
            self._g[type_name] = grown
            grown_dots = np.zeros(2 * top, dtype=float)
            grown_dots[:top] = self._gdots[type_name]
            self._gdots[type_name] = grown_dots
        self._top[type_name] = top + 1
        return top


class _ScalarSelector:
    """Scoreboard driver for the scalar cached path (kernels disabled).

    Same dirty-cone contract as the kernel scoreboard, with the scalar
    :class:`_CachedScore` probe loop as the per-entry rescore.  An entry
    is clean when its :class:`BlockSelectionCache` generation is
    unchanged since the last rescore (no invalidation touched the block,
    so every candidate still probes as a hit) *and* no balanced type in
    the union of its cached ``global_types`` bumped its ``S`` version
    (so no probe would re-assemble).  Both conditions reduce to integer
    comparisons; a clean entry's forces, counters, and incumbents are
    bit-unchanged, so its cached prefix-maxima record folds verbatim.
    """

    def __init__(
        self,
        scheduler: "ModuloSystemScheduler",
        entries: List[_Entry],
        coupling: "_GlobalCoupling",
        caches: List[BlockSelectionCache],
    ) -> None:
        self.scheduler = scheduler
        self.entries = entries
        self.coupling = coupling
        self.caches = caches
        self.board = SelectionScoreboard(len(entries))
        self._generations = [-1] * len(entries)
        self._scan_no = 0
        self._global_types = sorted(coupling.assignment.global_types)
        self._seen_version = {
            type_name: coupling.s_version(type_name)
            for type_name in self._global_types
        }

    def select(
        self, collect: Optional[list], want_detail: bool
    ) -> Optional[Tuple[int, str, bool, float, int, Optional[Tuple]]]:
        track = want_detail or collect is not None
        coupling = self.coupling
        self._scan_no += 1
        scan_no = self._scan_no
        bumped: List[str] = []
        for type_name in self._global_types:
            version = coupling.s_version(type_name)
            if version != self._seen_version[type_name]:
                self._seen_version[type_name] = version
                bumped.append(type_name)
        board = self.board
        caches = self.caches
        generations = self._generations
        if collect is not None:
            rescore = list(range(len(self.entries)))
        else:
            dirty = [
                index
                for index in range(len(self.entries))
                if caches[index].generation != generations[index]
            ]
            rescore = board.rescore_set(dirty, bumped)
        records = board.records
        skip_hits = board.sum_skip_hits
        for index in rescore:
            skip_hits -= records[index].skip_hits
        if skip_hits:
            count(FORCE_CACHE_HITS, skip_hits)
        for index in rescore:
            self._rescore_entry(index, scan_no, track, collect)
        count(SELECTION_RESCORED, len(rescore))
        count(SELECTION_SKIPPED, len(self.entries) - len(rescore))
        winner = board.fold()
        if winner is None:
            return None
        best_score, best_entry, offset, force_low, force_high = winner
        detail = None
        if want_detail:
            record = records[best_entry]
            kind = CACHE_HIT
            if record.last_scored == scan_no and record.pm_kinds is not None:
                kind = record.pm_kinds[record.pm_offsets.index(offset)]
            detail = (force_low, force_high, kind)
        entry = self.entries[best_entry]
        op_id = entry.state.frames.unfixed()[offset]
        return (
            best_entry,
            op_id,
            force_low > force_high + 1e-12,
            best_score,
            board.sum_candidates,
            detail,
        )

    def _rescore_entry(
        self, index: int, scan_no: int, track: bool, collect: Optional[list]
    ) -> None:
        """The reference scalar probe loop, restricted to one entry."""
        entry = self.entries[index]
        scheduler = self.scheduler
        coupling = self.coupling
        cache = self.caches[index]
        frames = entry.state.frames
        unfixed = frames.unfixed()
        scores: List[float] = []
        flows: List[float] = []
        fhighs: List[float] = []
        all_kinds: List[str] = []
        touched: set = set()
        for op_id in unfixed:
            lo, hi = frames.frame(op_id)
            cached = cache.get(op_id)
            kind = CACHE_HIT
            if cached is None:
                cached = scheduler._evaluate_cached(
                    index, entry, coupling, op_id, lo, hi
                )
                cache.put(op_id, cached)
                kind = CACHE_FRESH
            elif cached.global_types:
                versions = tuple(
                    coupling.s_version(t) for t in cached.global_types
                )
                if versions != cached.versions:
                    count(FORCE_CACHE_ASSEMBLIES)
                    if cached.terms_low is not None:
                        cached.force_low = scheduler._assemble(
                            cached.terms_low, coupling
                        )
                    if cached.terms_high is not None:
                        cached.force_high = scheduler._assemble(
                            cached.terms_high, coupling
                        )
                    cached.versions = versions
                    kind = CACHE_ASSEMBLED
            force_low, force_high = cached.force_low, cached.force_high
            eta = 1.0 if hi - lo + 1 <= 2 else 0.5
            score = eta * abs(force_low - force_high)
            scores.append(score)
            flows.append(force_low)
            fhighs.append(force_high)
            touched.update(cached.global_types)
            if track:
                all_kinds.append(kind)
            if collect is not None:
                collect.append(
                    CandidateAudit(
                        process=entry.process_name,
                        block=entry.block.name,
                        op=op_id,
                        force_low=force_low,
                        force_high=force_high,
                        score=score,
                        cache=kind,
                    )
                )
        positions = prefix_maxima_positions(scores)
        self.board.store(
            index,
            pm_offsets=positions,
            pm_scores=[scores[p] for p in positions],
            pm_flows=[flows[p] for p in positions],
            pm_fhighs=[fhighs[p] for p in positions],
            pm_kinds=[all_kinds[p] for p in positions] if track else None,
            n_candidates=len(unfixed),
            skip_hits=len(unfixed),
            touched_types=sorted(touched),
            scan_no=scan_no,
        )
        self._generations[index] = cache.generation


class ModuloSystemScheduler:
    """Time-constrained modulo scheduling with global resource sharing.

    Args:
        library: Resource library (latencies, occupancies, areas).
        lookahead: Paulin look-ahead fraction (classic 1/3).
        weights: Per-type spring-constant weights; ``None`` means 1.0
            everywhere (pass :func:`repro.scheduling.area_weights` for
            Verhaegh's global spring constants).
        periodical_alignment: Enable modification part 1 (§5.1).  When
            disabled, global types are treated like local ones during force
            evaluation (instance counts are still derived globally).
        global_balancing: Enable modification part 2 (§5.2).  Only
            meaningful while alignment is enabled.
        force_cache: Memoize the per-operation selection forces between
            iterations and re-evaluate only the dirty set perturbed by
            each committed reduction (see docs/performance.md).  The
            reduction sequence is byte-identical to the brute-force scan;
            disable only for A/B measurement.
        use_kernels: Evaluate selection forces with the batched array
            kernels (:mod:`repro.scheduling.kernels`): all dirty
            operations of a block are freshly evaluated in one
            (op × slot) pass, and stale cached recipes re-assemble with
            one stacked dot product per global type instead of one tiny
            ``np.dot`` per term.  Kernel evaluation engages together
            with ``force_cache``; with the cache disabled the scan uses
            the scalar reference path regardless (the brute-force arm
            exists for A/B measurement and stays the bitwise reference).
            Decisions agree with the scalar path — pinned at decision
            level by ``tests/core/test_kernel_parity.py`` (see
            docs/performance.md, "Batched kernels").
        use_scoreboard: Keep a persistent per-entry incumbent record
            (:class:`repro.scheduling.scoreboard.SelectionScoreboard`)
            and rescore, each iteration, only the entries inside the
            commit's dirty cone — the committed block, its same-process
            siblings on a non-``clean`` coupling scope, and the
            subscribers of every balanced type whose ``S`` bumped; clean
            entries fold their cached incumbents untouched.  Engages
            together with ``force_cache`` (in both kernel and scalar
            modes); decisions, schedules, areas, and telemetry counters
            are bit-identical to the full scan — pinned by
            ``tests/core/test_selection_scoreboard_parity.py`` — with
            the scoreboard's own work split reported via the new
            ``selection_rescored``/``selection_skipped`` counters.
            Disable only for A/B measurement.
        budget: Optional :class:`~repro.validation.budget.RunBudget`
            watchdog; on exhaustion (iterations, wall clock, or detected
            oscillation) the run degrades gracefully to the
            list-scheduling fallback — the result is still valid and
            verified, tagged ``degraded=True`` with the reason in
            ``telemetry["degraded"]`` (see docs/robustness.md).
        tracer: Observability sink (:class:`repro.obs.Tracer`); the
            default no-op tracer records nothing and costs nothing.
        audit: Optional :class:`repro.obs.AuditTrail`; when given, every
            committed reduction is recorded with its full decision
            context (candidates, forces, timeframe delta, cache
            classification) and attached under ``telemetry["audit"]``.
            Auditing observes and never steers — decisions are
            byte-identical with or without it.
    """

    def __init__(
        self,
        library: ResourceLibrary,
        *,
        lookahead: float = DEFAULT_LOOKAHEAD,
        weights: Optional[Mapping[str, float]] = None,
        periodical_alignment: bool = True,
        global_balancing: bool = True,
        force_cache: bool = True,
        use_kernels: bool = True,
        use_scoreboard: bool = True,
        budget: Optional[RunBudget] = None,
        tracer=None,
        audit=None,
    ) -> None:
        self.library = library
        self.lookahead = lookahead
        self.weights = dict(weights) if weights is not None else None
        self.periodical_alignment = periodical_alignment
        self.global_balancing = global_balancing
        self.force_cache = force_cache
        self.use_kernels = use_kernels
        self.use_scoreboard = use_scoreboard
        self.budget = budget
        self.tracer = as_tracer(tracer)
        self.audit = audit

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def schedule(
        self,
        system: SystemSpec,
        assignment: ResourceAssignment,
        periods: Optional[PeriodAssignment] = None,
        *,
        tracer=None,
        audit=None,
    ) -> SystemSchedule:
        """Schedule the whole system; returns a validated result.

        ``periods`` may be omitted only when the assignment declares no
        global types (the traditional baseline).  ``tracer`` and
        ``audit`` override the scheduler-level sinks for this one run.
        """
        if periods is None:
            if assignment.global_types:
                raise SchedulingError(
                    "a PeriodAssignment is required when global types exist"
                )
            periods = PeriodAssignment({})
        tracer = self.tracer if tracer is None else as_tracer(tracer)
        audit = self.audit if audit is None else audit
        if audit is not None and not audit.enabled:
            audit = None
        with tracer.activate(), tracer.span(
            "schedule", system=system.name, blocks=sum(1 for _ in system.iter_blocks())
        ):
            return self._schedule_traced(system, assignment, periods, tracer, audit)

    def _schedule_traced(
        self,
        system: SystemSpec,
        assignment: ResourceAssignment,
        periods: PeriodAssignment,
        tracer,
        audit=None,
    ) -> SystemSchedule:
        started = time.perf_counter()
        _log.debug(
            "scheduling system %r: %d operations, %d global types",
            system.name,
            system.operation_count,
            len(assignment.global_types),
        )
        with tracer.span("setup"):
            assignment.validate(system)
            periods.validate(assignment)
            system.validate(self.library.latency_of)
            entries = [
                _Entry(process.name, block, BlockState(block, self.library))
                for process, block in system.iter_blocks()
            ]
            if self.use_kernels and self.force_cache:
                for entry in entries:
                    entry.scalar_ops = guarded_footprint_ops(entry.state)
            coupling = _GlobalCoupling(entries, assignment, periods)
            caches = (
                [BlockSelectionCache(entry.state) for entry in entries]
                if self.force_cache
                else None
            )
            kernel = (
                _SystemKernel(self, entries, coupling, caches)
                if caches is not None and self.use_kernels
                else None
            )
            selector = (
                _ScalarSelector(self, entries, coupling, caches)
                if caches is not None and kernel is None and self.use_scoreboard
                else None
            )
        setup_done = time.perf_counter()

        tracker = self.budget.tracker() if self.budget is not None else None
        degraded_reason: Optional[str] = None
        iterations = 0
        keep_candidates = audit is not None and audit.keep_candidates
        with tracer.span("reduction_loop"):
            while True:
                collect: Optional[list] = [] if keep_candidates else None
                if tracer.enabled:
                    select_started = time.perf_counter()
                best = self._select_reduction(
                    entries,
                    coupling,
                    caches,
                    kernel=kernel,
                    selector=selector,
                    collect=collect,
                    want_detail=audit is not None,
                )
                if tracer.enabled:
                    tracer.observe(
                        SELECT_SECONDS, time.perf_counter() - select_started
                    )
                if best is None:
                    break
                if tracker is not None:
                    reason = tracker.tick(self._system_state_hash(entries))
                    if reason is not None:
                        degraded_reason = reason
                        _log.warning(
                            "budget exhausted scheduling system %r: %s; "
                            "degrading to list scheduling",
                            system.name,
                            reason,
                        )
                        if tracer.enabled:
                            tracer.event(
                                EVENT_DEGRADE,
                                reason=reason,
                                iteration=iterations,
                                fallback="list_scheduling",
                            )
                        break
                iterations += 1
                entry_index, op_id, shrink_low, score, candidates, detail = best
                entry = entries[entry_index]
                lo, hi = entry.state.frames.frame(op_id)
                if shrink_low:
                    effect = entry.state.commit_reduce_effect(op_id, lo + 1, hi)
                else:
                    effect = entry.state.commit_reduce_effect(op_id, lo, hi - 1)
                scopes = coupling.refresh(entry_index, effect.touched_types)
                if caches is not None:
                    self._invalidate_caches(
                        caches, entries, coupling, entry_index, effect, scopes
                    )
                if kernel is not None:
                    kernel.note_commit(entry_index, effect, scopes)
                side = "low" if shrink_low else "high"
                if audit is not None:
                    force_low, force_high, cache_kind = detail or (
                        0.0,
                        0.0,
                        CACHE_UNCACHED,
                    )
                    audit.record(
                        DecisionAudit(
                            iteration=iterations,
                            process=entry.process_name,
                            block=entry.block.name,
                            op=op_id,
                            side=side,
                            score=score,
                            force_low=force_low,
                            force_high=force_high,
                            frame_before=(lo, hi),
                            frame_after=entry.state.frames.frame(op_id),
                            cache=cache_kind,
                            changed_ops=tuple(sorted(effect.changed_ops)),
                            touched_types=tuple(sorted(effect.touched_types)),
                            scopes=dict(scopes),
                            candidates=tuple(collect) if collect else (),
                        )
                    )
                    count(AUDIT_DECISIONS)
                if tracer.enabled:
                    frames_remaining = sum(
                        e.state.frames.unfixed_count() for e in entries
                    )
                    tracer.count(SCHEDULER_ITERATIONS)
                    tracer.observe(REDUCTION_SCORE, score)
                    tracer.observe(CANDIDATES_SCANNED, candidates)
                    tracer.set_gauge(FRAMES_REMAINING, frames_remaining)
                    tracer.event(
                        EVENT_REDUCTION,
                        iteration=iterations,
                        process=entry.process_name,
                        block=entry.block.name,
                        op=op_id,
                        side=side,
                        score=round(score, 9),
                        candidates=candidates,
                        frames_remaining=frames_remaining,
                    )
                    tracer.event(
                        EVENT_COMMIT,
                        iteration=iterations,
                        process=entry.process_name,
                        block=entry.block.name,
                        op=op_id,
                        changed_ops=len(effect.changed_ops),
                        touched_types=sorted(effect.touched_types),
                        scopes=dict(scopes),
                    )
        loop_done = time.perf_counter()

        with tracer.span("finalization"):
            block_schedules: Dict[Tuple[str, str], BlockSchedule] = {}
            for entry in entries:
                if degraded_reason is not None:
                    # The frames are only partially reduced; reschedule
                    # each block with the bounded-time fallback instead.
                    sched = degraded_block_schedule(
                        entry.block, self.library, degraded_reason
                    )
                else:
                    sched = BlockSchedule(
                        graph=entry.block.graph,
                        library=self.library,
                        starts=entry.state.frames.as_schedule(),
                        deadline=entry.block.deadline,
                    )
                    sched.validate()
                block_schedules[(entry.process_name, entry.block.name)] = sched

            finished = time.perf_counter()
            telemetry: Dict[str, object] = {
                "phase_times": {
                    "setup": setup_done - started,
                    "reduction_loop": loop_done - setup_done,
                    "finalization": finished - loop_done,
                },
                "wall_time": finished - started,
                "iterations": iterations,
                "counters": (
                    tracer.counters.as_dict() if tracer.enabled else {}
                ),
                "events": len(tracer.events) if tracer.enabled else 0,
            }
            if tracer.enabled:
                gauges = tracer.metrics.gauges_dict()
                if gauges:
                    telemetry["gauges"] = gauges
                histograms = tracer.metrics.histograms_dict()
                if histograms:
                    telemetry["histograms"] = histograms
            if degraded_reason is not None:
                telemetry["degraded"] = {
                    "reason": degraded_reason,
                    "fallback": "list_scheduling",
                }
            if audit is not None:
                telemetry["audit"] = audit.summary()
            result = SystemSchedule(
                system=system,
                library=self.library,
                assignment=assignment,
                periods=periods,
                block_schedules=block_schedules,
                iterations=iterations,
                wall_time=finished - started,
                degraded=degraded_reason is not None,
                telemetry=telemetry,
            )
            result.validate()
        if _log.isEnabledFor(logging.INFO):
            _log.info(
                "scheduled system %r: %d iterations in %.3f s, area %g",
                system.name,
                iterations,
                result.wall_time,
                result.total_area(),
            )
        return result

    # ------------------------------------------------------------------
    # Budget support
    # ------------------------------------------------------------------
    @staticmethod
    def _system_state_hash(entries: List["_Entry"]) -> int:
        """Oscillation-detector state: every mobile frame in the system.

        Per-entry hashes are memoized against the frame table's version
        counter — only the block a commit actually touched rehashes, the
        rest revalidate with one integer comparison.
        """
        parts = []
        for entry in entries:
            frames = entry.state.frames
            version = frames.version()
            memo = entry.hash_memo
            if memo is not None and memo[0] == version:
                parts.append(memo[1])
            else:
                value = frames_state_hash(entry.state, frames.unfixed())
                entry.hash_memo = (version, value)
                parts.append(value)
        return hash(tuple(parts))

    # ------------------------------------------------------------------
    # Force evaluation
    # ------------------------------------------------------------------
    def _select_reduction(
        self,
        entries: List[_Entry],
        coupling: "_GlobalCoupling",
        caches: Optional[List[BlockSelectionCache]] = None,
        *,
        kernel: Optional["_SystemKernel"] = None,
        selector: Optional["_ScalarSelector"] = None,
        collect: Optional[list] = None,
        want_detail: bool = False,
    ) -> Optional[Tuple[int, str, bool, float, int, Optional[Tuple]]]:
        """Pick the IFDS reduction with the largest weighted force difference.

        Returns ``(entry_index, op_id, shrink_low, score, candidates,
        detail)`` where ``candidates`` is the number of mobile operations
        examined, or ``None`` once every frame has collapsed.  With
        ``caches`` the ``(force_low, force_high)`` pair of each clean
        operation is reused from the previous scan; the fold over
        candidates is replayed in the same order either way, so the
        selected reduction is identical.  With ``kernel`` the whole scan
        is delegated to the :class:`_SystemKernel` flat arrays.

        Audit support is opt-in and observation-only: with ``want_detail``
        the winner's ``(force_low, force_high, cache_kind)`` triple is
        returned as ``detail`` (else ``None``); with ``collect`` a
        :class:`~repro.obs.audit.CandidateAudit` is appended for every
        candidate examined.  Neither changes the scan order or the
        winner.
        """
        if kernel is not None:
            return kernel.select(collect=collect, want_detail=want_detail)
        if selector is not None:
            return selector.select(collect, want_detail)
        track = want_detail or collect is not None
        best_score = None
        best: Optional[Tuple[int, str, bool]] = None
        best_detail: Optional[Tuple[float, float, str]] = None
        kind = CACHE_UNCACHED
        candidates = 0
        for index, entry in enumerate(entries):
            cache = caches[index] if caches is not None else None
            unfixed = entry.state.frames.unfixed()
            if not unfixed:
                continue
            for op_id in unfixed:
                candidates += 1
                lo, hi = entry.state.frames.frame(op_id)
                if cache is None:
                    force_low = self._placement_force(index, entry, coupling, op_id, lo)
                    force_high = self._placement_force(index, entry, coupling, op_id, hi)
                    if track:
                        kind = CACHE_UNCACHED
                else:
                    cached = cache.get(op_id)
                    if cached is None:
                        cached = self._evaluate_cached(index, entry, coupling, op_id, lo, hi)
                        cache.put(op_id, cached)
                        if track:
                            kind = CACHE_FRESH
                    elif cached.global_types:
                        versions = tuple(
                            coupling.s_version(t) for t in cached.global_types
                        )
                        if versions != cached.versions:
                            # Only S moved (a commit in another process):
                            # re-assemble from the cached recipe.
                            count(FORCE_CACHE_ASSEMBLIES)
                            if cached.terms_low is not None:
                                cached.force_low = self._assemble(
                                    cached.terms_low, coupling
                                )
                            if cached.terms_high is not None:
                                cached.force_high = self._assemble(
                                    cached.terms_high, coupling
                                )
                            cached.versions = versions
                            if track:
                                kind = CACHE_ASSEMBLED
                        elif track:
                            kind = CACHE_HIT
                    elif track:
                        kind = CACHE_HIT
                    force_low, force_high = cached.force_low, cached.force_high
                eta = 1.0 if hi - lo + 1 <= 2 else 0.5
                score = eta * abs(force_low - force_high)
                if collect is not None:
                    collect.append(
                        CandidateAudit(
                            process=entry.process_name,
                            block=entry.block.name,
                            op=op_id,
                            force_low=force_low,
                            force_high=force_high,
                            score=score,
                            cache=kind,
                        )
                    )
                if best_score is None or score > best_score + 1e-12:
                    best_score = score
                    best = (index, op_id, force_low > force_high + 1e-12)
                    if track:
                        best_detail = (force_low, force_high, kind)
        if best is None:
            return None
        assert best_score is not None
        return best + (best_score, candidates, best_detail)

    def _evaluate_cached(
        self,
        entry_index: int,
        entry: _Entry,
        coupling: "_GlobalCoupling",
        op_id: str,
        lo: int,
        hi: int,
    ) -> _CachedScore:
        """Fresh evaluation of both frame ends, packaged with its recipe."""
        force_low, terms_low = self._force_terms(entry_index, entry, coupling, op_id, lo)
        force_high, terms_high = self._force_terms(entry_index, entry, coupling, op_id, hi)
        global_types: List[str] = []
        for terms in (terms_low, terms_high):
            if terms is None:
                continue
            for type_name, _weight, delta_s, _self_dot in terms:
                if type_name is not None and type_name not in global_types:
                    global_types.append(type_name)
        versions = tuple(coupling.s_version(t) for t in global_types)
        return _CachedScore(
            force_low, force_high, terms_low, terms_high, tuple(global_types), versions
        )

    def _assemble(self, terms, coupling: "_GlobalCoupling") -> float:
        """Fold a force recipe against the *current* system distributions.

        Produces bit-identical results to :meth:`_force_terms` as long as
        the recipe is not stale: scalar terms are reused verbatim and
        global terms recompute exactly the Hooke expression
        ``w * (delta_S . S + alpha * delta_S . delta_S)``.
        """
        total = 0.0
        for type_name, value_or_weight, delta_s, self_dot in terms:
            if type_name is None:
                total += value_or_weight
            else:
                total += value_or_weight * (
                    float(np.dot(delta_s, coupling.system_distribution(type_name)))
                    + self.lookahead * self_dot
                )
        return total

    def _invalidate_caches(
        self,
        caches: List[BlockSelectionCache],
        entries: List[_Entry],
        coupling: "_GlobalCoupling",
        entry_index: int,
        effect: ReductionEffect,
        scopes: Mapping[str, str],
    ) -> None:
        """Drop exactly the cached recipes the committed reduction perturbed.

        Within the committing block the local dirty-set rules apply
        (changed frames, their direct neighbors, touched types).  For a
        touched **global** type the perturbation travels through the
        coupling — but only as far as the re-folded arrays actually
        changed, which :meth:`_GlobalCoupling.refresh` reports per type:

        * ``"clean"`` — the displacement was hidden under the modulo
          maximum; ``Q`` is unchanged and no other block is dirty.
        * ``"process"`` / ``"system"`` — ``Q`` changed, so sibling blocks
          of the *same* process see it through eq. 9's cross-block
          maximum and the old process maximum: their recipes are stale.
          Blocks of **other** processes keep valid recipes even when
          ``S`` changed (``"system"``), because their ``delta_S`` only
          reads their own process's coupling state; the S-version bump
          makes them re-assemble cheaply at the next scan.

        With global balancing disabled the force of a block depends only
        on its own ``Q``, so no cross-block invalidation is needed at all.
        """
        caches[entry_index].invalidate_after_commit(effect)
        if not (self.periodical_alignment and self.global_balancing):
            return
        siblings = coupling.process_entries(entries[entry_index].process_name)
        for type_name, scope in scopes.items():
            if scope == "clean":
                continue
            for index in siblings:
                if index != entry_index:
                    caches[index].invalidate_type(type_name)

    def _placement_force(
        self,
        entry_index: int,
        entry: _Entry,
        coupling: "_GlobalCoupling",
        op_id: str,
        start: int,
    ) -> float:
        """Modified force F' (§5.3) of tentatively placing ``op_id`` at ``start``."""
        return self._force_terms(entry_index, entry, coupling, op_id, start)[0]

    def _force_terms(
        self,
        entry_index: int,
        entry: _Entry,
        coupling: "_GlobalCoupling",
        op_id: str,
        start: int,
    ) -> Tuple[float, Optional[list]]:
        """Force F' of a tentative placement, plus its cacheable recipe.

        Returns ``(force, terms)``.  ``terms`` is ``None`` for a purely
        local placement (every displaced type local: the force is a plain
        constant until the block is perturbed — delegated to the shared
        :func:`repro.scheduling.forces.force_from_deltas` kernel).
        Otherwise it is the ordered per-type term list consumed by
        :meth:`_assemble`: ``(None, scalar, None, None)`` for frozen local
        (and unbalanced-global) terms, ``(type, weight, delta_S,
        delta_S . delta_S)`` for globally balanced ones.
        """
        deltas = entry.state.placement_deltas(op_id, start)
        if not self.periodical_alignment or not any(
            coupling.is_shared(entry.process_name, type_name) for type_name in deltas
        ):
            force = force_from_deltas(
                entry.state.dist, deltas, lookahead=self.lookahead, weights=self.weights
            )
            return force, None
        total = 0.0
        terms: list = []
        for type_name, delta in deltas.items():
            weight = (
                1.0 if self.weights is None else float(self.weights.get(type_name, 1.0))
            )
            if coupling.is_shared(entry.process_name, type_name):
                period = coupling.period(type_name)
                displaced = entry.state.dist.array(type_name) + delta
                q_new = modulo_max(displaced, period)
                if not self.global_balancing:
                    q_old = coupling.block_q(entry_index, type_name)
                    value = weight * hooke_force(q_old, q_new - q_old, self.lookahead)
                    terms.append((None, value, None, None))
                else:
                    others = coupling.other_blocks_max(entry_index, type_name)
                    m_new = np.maximum(others, q_new)
                    m_old = coupling.process_max(entry.process_name, type_name)
                    delta_s = m_new - m_old
                    # Same expression as hooke_force(S, delta_s), spelled
                    # out so the recipe keeps the delta_S . delta_S dot.
                    count(FORCE_EVALUATIONS)
                    self_dot = float(np.dot(delta_s, delta_s))
                    value = weight * (
                        float(
                            np.dot(delta_s, coupling.system_distribution(type_name))
                        )
                        + self.lookahead * self_dot
                    )
                    terms.append((type_name, weight, delta_s, self_dot))
            else:
                value = weight * hooke_force(
                    entry.state.dist.array(type_name), delta, self.lookahead
                )
                terms.append((None, value, None, None))
            total += value
        return total, terms


class _GlobalCoupling:
    """Modulo-transformed and balanced distributions of all global types.

    Maintains, per (block, global type), the block's modulo-max transform
    ``Q`` (eq. 7); per (process, type) the block maximum ``M`` (eq. 9); and
    per type the system sum ``S`` over the sharing group (§5.2).  The
    sibling maxima of eq. 9 (``other_blocks_max``) are memoized per
    ``(block, type)`` and invalidated only when a sibling's ``Q`` changes.
    """

    def __init__(
        self,
        entries: List[_Entry],
        assignment: ResourceAssignment,
        periods: PeriodAssignment,
    ) -> None:
        self.entries = entries
        self.assignment = assignment
        self.periods = periods
        self._q: Dict[Tuple[int, str], np.ndarray] = {}
        self._m: Dict[Tuple[str, str], np.ndarray] = {}
        # Persistent (processes, period) stack of the group's M rows per
        # type: a process rebuild rewrites one row in place and the
        # system rebuild reduces the stack, instead of re-gathering the
        # group's rows into a fresh list every commit.
        self._m_rows: Dict[str, np.ndarray] = {}
        self._m_rowidx: Dict[Tuple[str, str], int] = {}
        self._s: Dict[str, np.ndarray] = {}
        self._s_version: Dict[str, int] = {}
        self._others: Dict[Tuple[int, str], np.ndarray] = {}
        self._process_entries: Dict[str, List[int]] = {}
        for index, entry in enumerate(entries):
            self._process_entries.setdefault(entry.process_name, []).append(index)
            for type_name in self._shared_types(entry):
                self._q[(index, type_name)] = self._fold(index, type_name)
        for type_name in assignment.global_types:
            for process_name in assignment.group(type_name):
                self._rebuild_process(process_name, type_name)
            self._rebuild_system(type_name)

    # -- queries --------------------------------------------------------
    def period(self, type_name: str) -> int:
        return self.periods.period(type_name)

    def is_shared(self, process_name: str, type_name: str) -> bool:
        return self.assignment.shares_globally(type_name, process_name)

    def process_entries(self, process_name: str) -> List[int]:
        """Entry indices of one process's blocks, in ascending order."""
        return self._process_entries[process_name]

    def block_q(self, entry_index: int, type_name: str) -> np.ndarray:
        key = (entry_index, type_name)
        if key not in self._q:
            self._q[key] = self._fold(entry_index, type_name)
        return self._q[key]

    def process_max(self, process_name: str, type_name: str) -> np.ndarray:
        return self._m[(process_name, type_name)]

    def system_distribution(self, type_name: str) -> np.ndarray:
        return self._s[type_name]

    def s_version(self, type_name: str) -> int:
        """Monotonic version of ``S``; bumps whenever the sum is rebuilt.

        Cached force recipes are tagged with the versions of the types
        they touch, so a scan can tell "re-assemble against the new S"
        apart from "reuse the assembled force verbatim".
        """
        return self._s_version.get(type_name, 0)

    def other_blocks_max(self, entry_index: int, type_name: str) -> np.ndarray:
        """Max of the sibling blocks' Q arrays (eq. 9 without this block).

        Memoized per ``(block, type)``; :meth:`refresh` drops the memo of
        every same-process sibling when a block's ``Q`` changes.  The
        returned array is read-only.
        """
        key = (entry_index, type_name)
        cached = self._others.get(key)
        if cached is not None:
            return cached
        process_name = self.entries[entry_index].process_name
        period = self.period(type_name)
        result = np.zeros(period, dtype=float)
        entries = self.entries
        for index in self._process_entries.get(process_name, ()):
            if index == entry_index:
                continue
            if type_name in entries[index].state.dist.type_names:
                np.maximum(result, self.block_q(index, type_name), out=result)
        self._others[key] = result
        return result

    # -- updates ---------------------------------------------------------
    def refresh(self, entry_index: int, touched_types) -> Dict[str, str]:
        """Re-fold after a committed reduction changed some distributions.

        Returns, per touched *shared* type, how far the perturbation
        actually propagated:

        * ``"clean"`` — the re-folded ``Q`` is unchanged (the displacement
          was hidden under the modulo maximum); nothing downstream moved.
        * ``"process"`` — ``Q`` changed but the process maximum ``M`` did
          not, so the system distribution ``S`` is also unchanged.
        * ``"system"`` — ``M`` (and therefore ``S``) changed.
        """
        entry = self.entries[entry_index]
        scopes: Dict[str, str] = {}
        for type_name in touched_types:
            if not self.is_shared(entry.process_name, type_name):
                continue
            key = (entry_index, type_name)
            old_q = self._q.get(key)
            new_q = self._fold(entry_index, type_name)
            if old_q is not None and np.array_equal(old_q, new_q):
                # Hidden displacement: Q, M, S all stay put — skip the
                # rebuilds entirely.
                scopes[type_name] = "clean"
                continue
            self._q[key] = new_q
            for index in self._process_entries.get(entry.process_name, ()):
                if index != entry_index:
                    self._others.pop((index, type_name), None)
            if self._rebuild_process(entry.process_name, type_name):
                self._rebuild_system(type_name)
                scopes[type_name] = "system"
            else:
                scopes[type_name] = "process"
        return scopes

    # -- internals --------------------------------------------------------
    def _shared_types(self, entry: _Entry) -> List[str]:
        return [
            type_name
            for type_name in entry.state.dist.type_names
            if self.is_shared(entry.process_name, type_name)
        ]

    def _fold(self, entry_index: int, type_name: str) -> np.ndarray:
        entry = self.entries[entry_index]
        period = self.period(type_name)
        if type_name not in entry.state.dist.type_names:
            return np.zeros(period, dtype=float)
        return modulo_max(entry.state.dist.array(type_name), period)

    def _rebuild_process(self, process_name: str, type_name: str) -> bool:
        """Recompute the process maximum ``M``; returns whether it changed."""
        period = self.period(type_name)
        result = np.zeros(period, dtype=float)
        entries = self.entries
        for index in self._process_entries.get(process_name, ()):
            if type_name in entries[index].state.dist.type_names:
                np.maximum(result, self.block_q(index, type_name), out=result)
        key = (process_name, type_name)
        old = self._m.get(key)
        changed = old is None or not np.array_equal(old, result)
        self._m[key] = result
        if changed:
            rows = self._m_rows.get(type_name)
            if rows is not None:
                position = self._m_rowidx.get(key)
                if position is not None:
                    rows[position] = result
        return changed

    def _rebuild_system(self, type_name: str) -> None:
        period = self.period(type_name)
        rows = self._m_rows.get(type_name)
        if rows is None:
            group = list(self.assignment.group(type_name))
            if group:
                rows = np.empty((len(group), period), dtype=float)
                for position, process_name in enumerate(group):
                    self._m_rowidx[(process_name, type_name)] = position
                    rows[position] = self._m[(process_name, type_name)]
                self._m_rows[type_name] = rows
        if rows is not None:
            # Sequential left-fold over the stacked rows: ``np.add.reduce``
            # over a python list converts to exactly this 2-D stack first
            # (and lengths this small never take numpy's pairwise path),
            # so the sum is value-identical to the old list form.
            result = np.add.reduce(rows, axis=0)
        else:
            result = np.zeros(period, dtype=float)
        self._s[type_name] = result
        self._s_version[type_name] = self._s_version.get(type_name, 0) + 1
