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
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..errors import SchedulingError
from ..ir.process import Block, SystemSpec
from ..obs import counters as _ambient
from ..obs.audit import CACHE_FRESH, CACHE_HIT, CandidateAudit, DecisionAudit
from ..obs.counters import (
    AUDIT_DECISIONS,
    FORCE_CACHE_HITS,
    FORCE_CACHE_MISSES,
    FORCE_EVALUATIONS,
    SCHEDULER_ITERATIONS,
    SELECTION_RESCORED,
    SELECTION_SKIPPED,
    Counters,
    count,
    observe_many,
)
from ..obs.events import EVENT_COMMIT, EVENT_DEGRADE, EVENT_REDUCTION
from ..obs.logconfig import get_logger
from ..obs.metrics import (
    CANDIDATES_SCANNED,
    COMMIT_SECONDS,
    FORCE_EVAL_SECONDS,
    FRAMES_REMAINING,
    REDUCTION_SCORE,
    SELECT_SECONDS,
    MetricsRegistry,
)
from ..obs.tracer import as_tracer
from ..resources.assignment import ResourceAssignment
from ..resources.library import ResourceLibrary
from ..scheduling.fallback import degraded_block_schedule, frames_state_hash
from ..scheduling.forces import DEFAULT_LOOKAHEAD
from ..scheduling.kernels import increment_stacks, row_dots, row_self_dots
from ..scheduling.schedule import BlockSchedule
from ..scheduling.state import BlockState, ReductionEffect
from ..validation.budget import RunBudget
from .modulo import modulo_max, modulo_max_rows
from .periods import PeriodAssignment
from .result import SystemSchedule

_log = get_logger(__name__)


@dataclass
class _Entry:
    """One block being scheduled, with its system coordinates."""

    process_name: str
    block: Block
    state: BlockState
    #: ``(frames.version(), hash)`` memo for ``_system_state_hash``; the
    #: frame version pins exactly when the hash can be reused.
    hash_memo: Optional[Tuple[int, int]] = None


class _RowTable:
    """The displacement rows of one (block, type), allocated once.

    One row per slot side whose operation was mobile at construction and
    whose static footprint (the operation's type plus its direct
    neighbours' types) holds the type, in block-local side order
    (``2 * (slot - block start) + side``, so each low end before its high
    end).  ``row_of`` maps a block-local side to its row (0 for a side
    without one), ``cols`` a row to its flat side column, and ``cells``
    a row to the value cell of the type's current position in the side's
    type order.  ``pos`` is the type's row of the block's holds mask,
    which says which rows hold a current displacement.  A rebuild
    overwrites rows in place.
    """

    __slots__ = ("pos", "row_of", "cols", "delta", "cells")

    def __init__(
        self, pos: int, sides: np.ndarray, width: int, start: int, n: int, horizon: int
    ) -> None:
        self.pos = pos
        self.row_of = np.zeros(width, dtype=np.intp)
        self.row_of[sides] = np.arange(sides.size)
        self.cols = start + (sides >> 1) + n * (sides & 1)
        self.delta = np.empty((sides.size, horizon))
        self.cells = np.zeros(sides.size, dtype=np.intp)


class _SystemKernel:
    """Persistent array-backed selection engine with dirty-cone rescoring.

    Every operation owns one *slot*, numbered entry by entry in each
    block's topological order, so the §5 scan order (entry order, then
    topological order) is ascending slot order.  Each of its two frame-end
    forces is decomposed as::

        force = const + sum over balanced types T of (w * delta_S_T) . S_T

    ``const`` freezes everything independent of the system distribution
    ``S`` — local and unbalanced Hooke terms plus the
    ``alpha * delta_S . delta_S`` look-ahead parts — while the
    pre-weighted ``w * delta_S`` vectors live as rows of one per-type
    matrix ``G`` (row 0 is a permanent all-zero sentinel for slots that
    do not touch the type).  A scan is then a few vectorized steps:

    * types whose ``S`` moved re-dot their whole ``G`` matrix against
      the new ``S`` in one matrix–vector product;
    * only the entries in the commit's dirty cone (see :meth:`select`)
      refold their live slots as ``const + gathered dots`` and rescore
      them as ``eta * |F_low - F_high|``; every other slot keeps its
      score;
    * the winner comes from one strict-prefix-maxima pass over the
      persistent scores of the live (unfixed) slots, replaying the
      scan-order hysteresis fold with the scalar epsilons.

    Rows and folds go stale separately.  Each slot side (one frame end
    of one operation) keeps its eq. 5 displacement rows — sums of
    increments, independent of the distribution — in per-(block, type)
    row tables (:class:`_RowTable`) allocated once at construction:
    one row per slot side whose static footprint holds the type, a
    per-block holds mask over the block's slot sides, and each row's
    value cell.  Its per-type force values live in a persistent
    (type-position × slot-side) matrix whose column sums, in type-order
    position, are the constants.  A commit invalidates the two
    differently:

    * **rows** of the frame ends in the effect's ``dropped_ends`` (both
      ends of the changed operations, and each neighbour's end that cut
      one) are rebuilt, in one :func:`~repro.scheduling.kernels
      .increment_stacks` batch per block, and overwrite their table
      rows in place; every other row stays valid, because a row reads
      only the frames of its operation and of the neighbours it cuts;
    * **folds** of each touched type — and, on a non-``clean`` coupling
      scope, of the same type in same-process siblings that hold rows
      of it — are redone for the type's held rows in one vectorized
      pass against the current distribution: the modulo-max / eq. 9 /
      §5.2 terms or the Hooke dots, and an in-place rewrite of the
      ``G`` rows.  The block then re-sums its constants over its own
      column range.

    Guarded (conditional-branch) operations keep their
    :meth:`~repro.scheduling.state.BlockState.placement_deltas` rows and
    are rebuilt whenever a type of their footprint moves, because
    branch-max recombination is not additive.

    The telemetry counts that work: ``force_cache_misses`` counts slot
    sides built (also the count of ``force_eval_seconds``) and
    ``force_cache_hits`` slot sides re-folded without a rebuild.  The
    ``G`` rows of a type whose ``S`` the coupling rebuilt (a
    ``"system"`` scope in :meth:`note_commit`) are re-dotted at the
    next scan.
    Decisions agree with the brute-force
    :class:`~repro.core.reference.ReferenceScheduler`, pinned by the
    ``tests/core/test_*_parity.py`` suites; the persistent state equals a
    freshly constructed kernel's, pinned by
    ``tests/core/test_kernel_state.py``.
    """

    def __init__(
        self,
        scheduler: "ModuloSystemScheduler",
        entries: List[_Entry],
        coupling: "_GlobalCoupling",
    ) -> None:
        self.entries = entries
        self.coupling = coupling
        self.lookahead = scheduler.lookahead
        self.weights = scheduler.weights
        self.alignment = scheduler.periodical_alignment
        self.balancing = scheduler.global_balancing

        # Slots are numbered entry by entry, each entry's operations in
        # topological order: the order ``frames.unfixed()`` walks, so the
        # scan order is ascending slot order.  ``_op_at`` and
        # ``_entry_of`` map a slot back to its operation and entry.
        self.slot_of: List[Dict[str, int]] = []
        self._op_at: List[str] = []
        self._entry_of: List[int] = []
        self._bounds: List[Tuple[int, int]] = []
        n = sum(len(entry.state.graph.op_ids) for entry in entries)
        # Per entry: the longest type order any of its frame ends can
        # have (the most distinct types among an operation and its direct
        # neighbours), type -> the guarded operations whose footprint
        # holds it (rebuilt whenever that type moves), the row tables,
        # and the holds mask (table position × block-local side).
        self._positions: List[int] = []
        self._guarded_by_type: List[Dict[str, Tuple[str, ...]]] = []
        self._tables: List[Dict[str, _RowTable]] = []
        self._held: List[np.ndarray] = []
        start = 0
        for index, entry in enumerate(entries):
            state = entry.state
            type_of = state.dist.type_of
            mapping: Dict[str, int] = {}
            positions = 1
            guarded: Dict[str, List[str]] = {}
            # Type -> the block-local sides of the mobile operations whose
            # footprint holds it (an operation fixed now is never built).
            sides: Dict[str, List[int]] = {}
            order = state.graph.topological_order()
            self._op_at.extend(order)
            self._entry_of.extend([index] * len(order))
            self._bounds.append((start, start + len(order)))
            for local, op_id in enumerate(order):
                mapping[op_id] = start + local
                _latency, preds, succs = state.links[op_id]
                footprint = {type_of[op_id]}
                footprint.update(type_of[pred] for pred, _ in preds)
                footprint.update(type_of[succ] for succ in succs)
                positions = max(positions, len(footprint))
                if not state.frames.is_fixed(op_id):
                    for type_name in footprint:
                        sides.setdefault(type_name, []).extend(
                            (2 * local, 2 * local + 1)
                        )
                if op_id in state.guarded_ops:
                    for type_name in footprint:
                        guarded.setdefault(type_name, []).append(op_id)
            self.slot_of.append(mapping)
            self._positions.append(positions)
            self._guarded_by_type.append(
                {name: tuple(ops) for name, ops in guarded.items()}
            )
            width = 2 * len(order)
            horizon = state.dist.horizon
            self._tables.append(
                {
                    name: _RowTable(
                        pos, np.asarray(sides[name]), width, start, n, horizon
                    )
                    for pos, name in enumerate(sorted(sides))
                }
            )
            self._held.append(np.zeros((len(sides), width), dtype=bool))
            start += len(order)
        self._n = n
        # Row 0 holds the low frame end, row 1 the high end: fusing the
        # two sides into (2, n) arrays halves the per-scan numpy call
        # count of the refold/gather phases.  ``side * n + slot`` is a
        # side's flat column.
        self._const = np.zeros((2, n), dtype=float)
        self._const_flat = self._const.reshape(-1)
        self._eta = np.ones(n, dtype=float)
        self._force = np.empty((2, n), dtype=float)
        # Per-type values of every slot side: row p holds the value of
        # the type at position p of the side's type order (0.0 past its
        # end), so a constant is the sum of its column, in row order.
        self._values = np.zeros((max(self._positions, default=1), 2 * n))
        self._values_flat = self._values.reshape(-1)
        # Per flat column: the balanced types holding a G row for it.
        self._assigned: List[Tuple[str, ...]] = [()] * (2 * n)
        # Per entry: type order -> its balanced types (those holding a
        # G row), a static property of the entry's process.
        self._balanced_part: List[Dict[Tuple[str, ...], Tuple[str, ...]]] = [
            {} for _ in entries
        ]
        # Per entry: what the commits since the last scan made stale
        # (operation -> mask of its ends, 1 low and 2 high), starting
        # with both ends of every mobile operation.
        self._drop: List[Dict[str, int]] = [
            dict.fromkeys(entry.state.frames.unfixed(), 3) for entry in entries
        ]
        self._refold: List[set] = [set() for _ in entries]

        # A commit only perturbs the committed entry (and, for a
        # non-clean scope, its same-process siblings), which
        # :meth:`note_commit` marks dirty; clean entries skip
        # classification wholesale.
        self._dirty = set(range(len(entries)))
        # Live (unfixed) slots: a mask cleared as :meth:`_refresh`
        # releases a fixed operation, each entry's live slots, and the
        # global live index in scan order.  The arrays are recomputed
        # only after an operation fixes.
        self._live = np.array(
            [
                not entries[index].state.frames.is_fixed(op_id)
                for op_id, index in zip(self._op_at, self._entry_of)
            ],
            dtype=bool,
        )
        self._live_slots = [
            np.flatnonzero(self._live[start:end]) + start
            for start, end in self._bounds
        ]
        self._live_idx = np.flatnonzero(self._live)
        self._live_stale = False
        # Per entry: the balanced types holding a G row among its live
        # slots; per balanced type: the entries subscribed to it, exactly
        # those whose scores go stale when the type's ``S`` bumps.
        self._touched: List[Tuple[str, ...]] = [() for _ in entries]
        self._subscribers: Dict[str, Set[int]] = {}
        # Per entry: the other blocks of its process (eq. 9's sibling
        # maximum is all zeros without any).
        self._siblings = [
            tuple(i for i in coupling.process_entries(e.process_name) if i != index)
            for index, e in enumerate(entries)
        ]
        # Every slot's score persists between scans; only the dirty cone
        # is rescored.
        self._scores_g = np.zeros(n, dtype=float)

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
        # Balanced types whose S the coupling rebuilt since the last scan.
        self._bumped: Set[str] = set()
        for type_name in balanced:
            period = coupling.type_period[type_name]
            self._g[type_name] = np.zeros((16, period), dtype=float)
            self._gdots[type_name] = np.zeros(16, dtype=float)
            self._top[type_name] = 1  # row 0: permanent all-zero sentinel
            self._free[type_name] = []
            self._gslot[type_name] = np.zeros((2, n), dtype=np.int64)
        self._gslot_flat: Dict[str, np.ndarray] = {
            name: rows.reshape(-1) for name, rows in self._gslot.items()
        }

    # -- scan ----------------------------------------------------------
    def select(
        self, *, collect: Optional[list] = None, want_detail: bool = False
    ) -> Optional[Tuple[int, str, bool, float, int, Optional[Tuple]]]:
        """Pick the IFDS reduction with the largest weighted force difference.

        Returns ``(entry_index, op_id, shrink_low, score, candidates,
        detail)`` where ``candidates`` is the number of mobile operations
        in the scan, or ``None`` once every frame has collapsed.

        Audit support is opt-in and observation-only: with ``want_detail``
        the winner's ``(force_low, force_high, cache_kind)`` triple is
        returned as ``detail`` (else ``None``); with ``collect`` a
        :class:`~repro.obs.audit.CandidateAudit` is appended for every
        candidate.  Neither changes the winner.

        Only the *dirty cone* is rescored: the entries :meth:`note_commit`
        marked dirty plus every entry subscribed to a balanced type whose
        ``S`` bumped.  The rest keep their stored scores.  Exactness rests
        on two facts (docs/performance.md, "Selection scoreboard"):

        * a clean entry's forces are bit-unchanged — its constants moved
          only through a fresh evaluation (needs a dirty entry) and its
          per-type dots only through an ``S`` bump of a touched type
          (which puts the entry in the rescore set via its subscription);
        * the scan-order hysteresis fold (``score > best + 1e-12``) only
          ever accepts strict prefix maxima.  By induction the running
          best never drops more than the epsilon below the prefix
          maximum, so an accepted score strictly exceeds every earlier
          one; replaying the fold over just the strict prefix maxima of
          the persistent per-slot scores (one ``np.maximum.accumulate``
          over the live slots, which are in scan order) picks the same
          winner.

        ``collect`` (audit candidate capture) needs every candidate's
        force, so it degrades to rescore-all; a clean entry's rescore
        charges no counter.  The rescored entries are processed as *one*
        batch, so the per-scan numpy call count stays constant instead
        of linear in the rescore-set size.
        """
        track = want_detail or collect is not None
        coupling = self.coupling

        # (1) Sync to S: re-dot the G rows of the types whose S the
        # commits since the last scan rebuilt.
        bumped = self._bumped
        for type_name in bumped:
            top = self._top[type_name]
            if top > 1:
                np.matmul(
                    self._g[type_name][:top],
                    coupling.system_distribution(type_name),
                    out=self._gdots[type_name][:top],
                )

        # (2) The rescore set: the commit's dirty cone plus every entry
        # subscribed to a bumped type.
        dirty = self._dirty
        if collect is not None:
            rescore = list(range(len(self.entries)))
        else:
            stale = set(dirty)
            for type_name in bumped:
                stale.update(self._subscribers.get(type_name, ()))
            rescore = sorted(stale)
        bumped.clear()

        # (3) Classify the dirty entries (the rescore set contains every
        # one of them); a clean rescored entry's live slots and
        # subscriptions are provably unchanged.
        kinds: Optional[Dict[int, str]] = {} if track else None
        for index in rescore:
            if index in dirty:
                self._classify_entry(index, kinds)
        dirty.clear()
        count(SELECTION_RESCORED, len(rescore))
        count(SELECTION_SKIPPED, len(self.entries) - len(rescore))
        if self._live_stale:
            self._live_idx = np.flatnonzero(self._live)
            self._live_stale = False

        # (4) Refold the rescored entries' live slots: constants plus the
        # gathered per-type dots.  Only types some rescored entry
        # subscribes to hold a G row among these slots; every other type
        # would gather the all-zero sentinel row, so skipping it is exact.
        live_slots = self._live_slots
        if len(rescore) == 1:
            cat_slots = live_slots[rescore[0]]
        elif rescore:
            cat_slots = np.concatenate([live_slots[index] for index in rescore])
        else:
            cat_slots = np.empty(0, dtype=np.intp)
        if cat_slots.size:
            touched: set = set()
            for index in rescore:
                touched.update(self._touched[index])
            force = self._const[:, cat_slots]
            for type_name in self._balanced_types:
                if type_name in touched and self._top[type_name] > 1:
                    force += self._gdots[type_name][
                        self._gslot[type_name][:, cat_slots]
                    ]

            # (5) Score the rescored columns once and scatter forces and
            # scores into the persistent per-slot arrays; the skipped
            # columns provably kept theirs.
            flows = force[0]
            fhighs = force[1]
            scores = self._eta[cat_slots] * np.abs(flows - fhighs)
            self._force[:, cat_slots] = force
            self._scores_g[cat_slots] = scores

            if collect is not None:
                entries = self.entries
                for slot, force_low, force_high, score in zip(
                    cat_slots.tolist(), flows.tolist(), fhighs.tolist(), scores.tolist()
                ):
                    entry = entries[self._entry_of[slot]]
                    collect.append(
                        CandidateAudit(
                            process=entry.process_name,
                            block=entry.block.name,
                            op=self._op_at[slot],
                            force_low=force_low,
                            force_high=force_high,
                            score=score,
                            cache=kinds.get(slot, CACHE_HIT),
                        )
                    )

        # (6) Winner extraction: replay the hysteresis fold over the
        # strict prefix maxima of the live slots' persistent scores.
        idx = self._live_idx
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
        slot = int(idx[best_pos])
        force_low = float(self._force[0, slot])
        force_high = float(self._force[1, slot])
        detail = None
        if want_detail:
            detail = (force_low, force_high, kinds.get(slot, CACHE_HIT))
        assert best_score is not None
        return (
            self._entry_of[slot],
            self._op_at[slot],
            force_low > force_high + 1e-12,
            best_score,
            total,
            detail,
        )

    def _classify_entry(
        self, index: int, kinds: Optional[Dict[int, str]]
    ) -> None:
        """Reclassify one dirty entry.

        Brings the entry's rows and folds up to date (:meth:`_refresh`),
        then, if that built or freed rows, its subscriptions: the
        balanced types holding a G row among its live slots.
        """
        if not self._refresh(index, self.entries[index], kinds):
            return
        # A live side holds a G row of a balanced type its process shares
        # exactly when it holds a row of the type; fixed sides hold none.
        holding = self._held[index].any(axis=1)
        process_name = self.entries[index].process_name
        shared = self.coupling.shared
        new = tuple(
            name
            for name, table in self._tables[index].items()
            if holding[table.pos]
            and name in self._g
            and (process_name, name) in shared
        )
        old = self._touched[index]
        if new != old:
            subscribers = self._subscribers
            for type_name in old:
                subscribers[type_name].discard(index)
            for type_name in new:
                subscribers.setdefault(type_name, set()).add(index)
            self._touched[index] = new

    def note_commit(
        self,
        entry_index: int,
        effect: ReductionEffect,
        scopes: Mapping[str, str],
    ) -> None:
        """Mark exactly the rows and folds the committed reduction staled.

        In the committing block the frame ends of ``effect.dropped_ends``
        (both ends of each changed operation, and each neighbour's end
        that cut one) lose their rows, and every touched type re-folds:
        its distribution moved.  For a
        touched **global** type the perturbation travels through the
        coupling — but only as far as the re-folded arrays actually
        changed, which :meth:`_GlobalCoupling.refresh` reports per type:

        * ``"clean"`` — the displacement was hidden under the modulo
          maximum; ``Q`` is unchanged and no other block is dirty.
        * ``"process"`` / ``"system"`` — ``Q`` changed, so sibling blocks
          of the *same* process see it through eq. 9's cross-block
          maximum and the old process maximum: those holding a row of
          the type, or a guarded operation whose footprint holds it,
          re-fold the type.  Their rows stay valid, since their own
          distribution did not move; a sibling with neither holds no
          value that reads the type.  Blocks of **other** processes keep
          valid folds even when ``S`` changed (``"system"``), because
          their ``delta_S`` only reads their own process's coupling
          state; a ``"system"`` scope means the coupling rebuilt ``S``,
          so the type's G rows are re-dotted at the next scan.

        With global balancing disabled the force of a block depends only
        on its own ``Q``, so no cross-block invalidation is needed at all.
        The committed entry, and on a non-``clean`` scope the siblings it
        staled, reclassify at the next scan.
        """
        self._stale(entry_index, effect.dropped_ends, effect.touched_types)
        dirty = self._dirty
        dirty.add(entry_index)
        if not (self.alignment and self.balancing):
            return
        siblings = self._siblings[entry_index]
        for type_name, scope in scopes.items():
            if scope == "clean":
                continue
            if scope == "system":
                self._bumped.add(type_name)
            for index in siblings:
                # A sibling holding a row of the type, or a guarded
                # operation whose footprint holds it, reads the type.
                table = self._tables[index].get(type_name)
                if (
                    table is not None and self._held[index][table.pos].any()
                ) or type_name in self._guarded_by_type[index]:
                    self._stale(index, (), (type_name,))
                    dirty.add(index)

    def _stale(
        self, index: int, ends: Iterable[Tuple[str, int]], types: Iterable[str]
    ) -> None:
        """Queue frame ends to rebuild and types to re-fold for one entry.

        The queue maps each operation to a mask of its ends (1 the low
        end, 2 the high end).  Guarded operations whose footprint holds
        a moved type are rebuilt, both ends, rather than re-folded.
        """
        drop = self._drop[index]
        for op_id, end in ends:
            drop[op_id] = drop.get(op_id, 0) | (1 << end)
        refold = self._refold[index]
        guarded = self._guarded_by_type[index]
        for type_name in types:
            refold.add(type_name)
            if guarded:
                for op_id in guarded.get(type_name, ()):
                    drop[op_id] = 3

    # -- rows and folds --------------------------------------------------
    def _refresh(
        self,
        index: int,
        entry: _Entry,
        kinds: Optional[Dict[int, str]],
    ) -> bool:
        """Bring one entry's rows, folds and constants up to date.

        Clears the holds of the queued frame ends' rows (an operation
        that fixed clears both ends and leaves the live slots), rebuilds
        the rows of the mobile ones in place, re-folds each queued
        type's held rows and each other type's rebuilt ones, then
        re-sums the entry's constants over its column range.  A constant
        is the sum of its per-type values in type-order position, added
        row by row of the value matrix from zero: the same additions in
        the same order as a fresh evaluation.  Returns whether rows were
        dropped or built, i.e. whether the entry's G-row assignment may
        have moved.
        """
        slots_map = self.slot_of[index]
        tables = self._tables[index]
        held = self._held[index]
        drop = self._drop[index]
        start, end = self._bounds[index]
        registry_active = _ambient._active is not None
        # Block-local sides (``2 * (slot - start) + side``) to rebuild: the
        # dropped ends of the operations that stay mobile, in slot order.
        fresh: List[int] = []
        # Sides of the operations that fixed, whose rows are released.
        cleared: List[int] = []
        if drop:
            frames = entry.state.frames
            live = self._live
            for op_id, ends in drop.items():
                slot = slots_map[op_id]
                if not live[slot]:
                    continue
                side = 2 * (slot - start)
                lo, hi = frames.frame(op_id)
                if lo == hi:
                    self._release(slot)
                    cleared.append(side)
                    cleared.append(side + 1)
                else:
                    if ends & 1:
                        fresh.append(side)
                    if ends & 2:
                        fresh.append(side + 1)
            drop.clear()
            held[:, cleared + fresh] = False
            fresh.sort()
            if cleared:
                slots = np.flatnonzero(live[start:end])
                slots += start
                self._live_slots[index] = slots
                self._live_stale = True
        refold = self._refold[index]
        hits = 0
        if refold and registry_active:
            # Sides re-folded without a rebuild: those still holding a
            # row of a queued type (rebuilt sides hold none yet).
            positions = [tables[name].pos for name in refold if name in tables]
            hits = int(np.count_nonzero(held[positions].any(axis=0)))
        new: Dict[str, np.ndarray] = {}
        if fresh:
            started = time.perf_counter() if registry_active else 0.0
            new = self._build(index, entry, fresh)
            if registry_active:
                rows = len(fresh)
                observe_many(
                    FORCE_EVAL_SECONDS, (time.perf_counter() - started) / rows, rows
                )
            if kinds is not None:
                for side in fresh:
                    kinds[start + side // 2] = CACHE_FRESH

        folded = False
        for type_name, rows in new.items():
            if type_name not in refold:
                # Held rows of an unmoved type keep their values.
                self._fold(index, entry, type_name, tables[type_name], rows)
                folded = True
        for type_name in refold:
            table = tables.get(type_name)
            if table is not None:
                rows = table.row_of[held[table.pos]]
                if rows.size:
                    self._fold(index, entry, type_name, table, rows)
                    folded = True
        refold.clear()
        if not folded:
            return bool(cleared)
        # The value matrix as (position, side, slot): one reduction over
        # the entry's slot range re-sums both sides' constants.
        values = self._values.reshape(-1, 2, self._n)
        np.add.reduce(
            values[: self._positions[index], :, start:end],
            axis=0,
            out=self._const[:, start:end],
            initial=0.0,
        )
        if fresh:
            count(FORCE_CACHE_MISSES, len(fresh))
        if hits:
            count(FORCE_CACHE_HITS, hits)
        return bool(cleared or fresh)

    def _build(
        self, index: int, entry: _Entry, fresh: List[int]
    ) -> Dict[str, np.ndarray]:
        """Rows of a block's row-less frame ends, given as block-local sides.

        One :func:`~repro.scheduling.kernels.increment_stacks` batch
        covers every frame end; each displaced type's rows overwrite
        their table rows in place and become held.  Each operation's
        ``eta`` is stored and each side's stale values cleared.  A side
        keeps its G rows when its balanced-type tuple is unchanged;
        otherwise it releases the old rows and allocates new ones, in
        row order.  Returns, per displaced type, the table rows written.
        """
        coupling = self.coupling
        state = entry.state
        frames = state.frames
        n = self._n
        start = self._bounds[index][0]
        op_at = self._op_at
        pairs: List[Tuple[str, int]] = []
        cols: List[int] = []
        slots: List[int] = []
        etas: List[float] = []
        for side in fresh:
            slot = start + (side >> 1)
            op_id = op_at[slot]
            lo, hi = frames.frame(op_id)
            pairs.append((op_id, hi if side & 1 else lo))
            cols.append(slot + n * (side & 1))
            slots.append(slot)
            etas.append(1.0 if hi - lo + 1 <= 2 else 0.5)
        type_orders, batch = increment_stacks(state, pairs)
        self._eta[slots] = etas
        self._values[:, cols] = 0.0

        process_name = entry.process_name
        balanced_part = self._balanced_part[index]
        balancing = self.alignment and self.balancing
        assigned = self._assigned
        for col, order in zip(cols, type_orders):
            part = balanced_part.get(order)
            if part is None:
                part = balanced_part[order] = tuple(
                    name
                    for name in order
                    if balancing and (process_name, name) in coupling.shared
                )
            old = assigned[col]
            if part == old:
                # Releasing and re-allocating would hand back the very
                # same row ids; the rows are rewritten in place.
                continue
            for type_name in old:
                self._free_row(type_name, col)
            for type_name in part:
                self._gslot_flat[type_name][col] = self._alloc_row(type_name)
            assigned[col] = part

        # Each (batch row, type position) goes to its table row, held,
        # with the value cell ``position * 2n + flat side column``.
        tables = self._tables[index]
        held = self._held[index]
        sides = np.asarray(fresh, dtype=np.intp)
        width = 2 * n
        written: Dict[str, np.ndarray] = {}
        for type_name, stack in batch.items():
            batch_rows, cells = stack.index
            table = tables[type_name]
            at = sides[batch_rows]
            rows = table.row_of[at]
            table.delta[rows] = stack.delta
            table.cells[rows] = cells * width + table.cols[rows]
            held[table.pos, at] = True
            written[type_name] = rows
        return written

    def _fold(
        self,
        index: int,
        entry: _Entry,
        type_name: str,
        table: _RowTable,
        rows: np.ndarray,
    ) -> None:
        """Fold the given rows of a table against the current distributions.

        Mirrors :meth:`~repro.core.reference.ReferenceScheduler
        ._placement_force` branch for branch: aligned shared types take
        the modulo maximum of the tentative distribution and, under
        balancing, eq. 9's sibling maximum (skipped for a single-block
        process, whose sibling maximum is all zeros) minus the old
        process maximum (the ``w * delta_S`` rows go to ``G`` in place,
        with their current-``S`` dots); every other type takes the Hooke
        dots.  The stored rows are only read: the tentative distribution
        ``delta + D`` is a new array.
        """
        coupling = self.coupling
        base = entry.state.dist.array(type_name)
        deltas = table.delta[rows]
        weights = self.weights
        weight = 1.0 if weights is None else float(weights.get(type_name, 1.0))
        lookahead = self.lookahead
        count(FORCE_EVALUATIONS, len(rows))
        if self.alignment and (entry.process_name, type_name) in coupling.shared:
            q_new = modulo_max_rows(deltas + base, coupling.type_period[type_name])
            if not self.balancing:
                q_old = coupling.block_q(index, type_name)
                q_new -= q_old
                vals = weight * (
                    row_dots(q_new, q_old) + lookahead * row_self_dots(q_new)
                )
            else:
                if self._siblings[index]:
                    others = coupling.other_blocks_max(index, type_name)
                    np.maximum(others, q_new, out=q_new)
                q_new -= coupling.process_max(entry.process_name, type_name)
                vals = (weight * lookahead) * row_self_dots(q_new)
                q_new *= weight
                ids = self._gslot_flat[type_name][table.cols[rows]]
                self._g[type_name][ids] = q_new
                self._gdots[type_name][ids] = row_dots(
                    q_new, coupling.system_distribution(type_name)
                )
        else:
            vals = weight * (
                row_dots(deltas, base) + lookahead * row_self_dots(deltas)
            )
        self._values_flat[table.cells[rows]] = vals

    def _release(self, slot: int) -> None:
        """Free both sides' G rows of an operation that fixed; its slot
        leaves the live mask."""
        self._live[slot] = False
        for col in (slot, slot + self._n):
            for type_name in self._assigned[col]:
                self._free_row(type_name, col)
            self._assigned[col] = ()

    def _free_row(self, type_name: str, col: int) -> None:
        gslot = self._gslot_flat[type_name]
        self._free[type_name].append(int(gslot[col]))
        gslot[col] = 0

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


class ModuloSystemScheduler:
    """Time-constrained modulo scheduling with global resource sharing.

    Selection runs through one engine, :class:`_SystemKernel`: per-block
    displacement rows rebuilt only where a commit cut them, folds redone
    only for the types it moved, batched array kernels for fresh rows,
    and dirty-cone rescoring of only the perturbed blocks (see
    docs/performance.md).
    Its decisions agree with the brute-force
    :class:`~repro.core.reference.ReferenceScheduler`.

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
        budget: Optional[RunBudget] = None,
        tracer=None,
        audit=None,
    ) -> None:
        self.library = library
        self.lookahead = lookahead
        self.weights = dict(weights) if weights is not None else None
        self.periodical_alignment = periodical_alignment
        self.global_balancing = global_balancing
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
        blocks = sum(1 for _ in system.iter_blocks())
        with tracer.span("schedule", system=system.name, blocks=blocks):
            if not tracer.enabled:
                return self._schedule_traced(
                    system, assignment, periods, tracer, None, audit
                )
            # The run records into its own registry, so its telemetry
            # reports this run alone; the tracer, which several runs may
            # share, receives the run's instruments when it ends.
            run = Counters()
            try:
                with run.activate():
                    return self._schedule_traced(
                        system, assignment, periods, tracer, run.registry, audit
                    )
            finally:
                tracer.metrics.merge(run.registry)

    def _schedule_traced(
        self,
        system: SystemSpec,
        assignment: ResourceAssignment,
        periods: PeriodAssignment,
        tracer,
        metrics: Optional[MetricsRegistry],
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
            coupling = _GlobalCoupling(entries, assignment, periods)
            selector = self._selector(entries, coupling)
        setup_done = time.perf_counter()

        tracker = self.budget.tracker() if self.budget is not None else None
        degraded_reason: Optional[str] = None
        iterations = 0
        keep_candidates = audit is not None and audit.keep_candidates
        if tracer.enabled:
            # Only the committed entry's frames change, so the gauge is
            # kept as a running total.
            frames_remaining = sum(e.state.frames.unfixed_count() for e in entries)
        with tracer.span("reduction_loop"):
            while True:
                collect: Optional[list] = [] if keep_candidates else None
                if tracer.enabled:
                    select_started = time.perf_counter()
                best = selector.select(
                    collect=collect, want_detail=audit is not None
                )
                if tracer.enabled:
                    metrics.observe(
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
                frames = entry.state.frames
                lo, hi = frames.frame(op_id)
                if tracer.enabled:
                    unfixed_before = frames.unfixed_count()
                    commit_started = time.perf_counter()
                if shrink_low:
                    effect = entry.state.commit_reduce_effect(op_id, lo + 1, hi)
                else:
                    effect = entry.state.commit_reduce_effect(op_id, lo, hi - 1)
                scopes = coupling.refresh(entry_index, effect.touched_types)
                selector.note_commit(entry_index, effect, scopes)
                if tracer.enabled:
                    metrics.observe(
                        COMMIT_SECONDS, time.perf_counter() - commit_started
                    )
                    frames_remaining -= unfixed_before - frames.unfixed_count()
                side = "low" if shrink_low else "high"
                if audit is not None:
                    force_low, force_high, cache_kind = detail
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
                    metrics.inc(SCHEDULER_ITERATIONS)
                    metrics.observe(REDUCTION_SCORE, score)
                    metrics.observe(CANDIDATES_SCANNED, candidates)
                    metrics.set_gauge(FRAMES_REMAINING, frames_remaining)
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
                "counters": metrics.counters_dict() if metrics is not None else {},
                "events": len(tracer.events) if tracer.enabled else 0,
            }
            if metrics is not None:
                gauges = metrics.gauges_dict()
                if gauges:
                    telemetry["gauges"] = gauges
                histograms = metrics.histograms_dict()
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

    def _selector(
        self, entries: List[_Entry], coupling: "_GlobalCoupling"
    ) -> "_SystemKernel":
        """The selection engine of one run: its ``select`` picks each
        reduction and its ``note_commit`` sees every committed one."""
        return _SystemKernel(self, entries, coupling)

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
        # Read directly by the hot paths: the (process, type) pairs that
        # share globally, and each global type's period.
        self.shared: FrozenSet[Tuple[str, str]] = frozenset(
            (process_name, type_name)
            for type_name in assignment.global_types
            for process_name in assignment.group(type_name)
        )
        self.type_period: Dict[str, int] = {
            type_name: periods.period(type_name)
            for type_name in assignment.global_types
        }
        self._q: Dict[Tuple[int, str], np.ndarray] = {}
        self._m: Dict[Tuple[str, str], np.ndarray] = {}
        # Persistent (processes, period) stack of the group's M rows per
        # type: a process rebuild rewrites one row in place and the
        # system rebuild reduces the stack, instead of re-gathering the
        # group's rows into a fresh list every commit.
        self._m_rows: Dict[str, np.ndarray] = {}
        self._m_rowidx: Dict[Tuple[str, str], int] = {}
        self._s: Dict[str, np.ndarray] = {}
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
        period = self.type_period[type_name]
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
        * ``"system"`` — ``M`` (and therefore ``S``) changed: ``S`` was
          rebuilt, and the selection engine re-dots the type's stored
          ``w * delta_S`` rows against it.
        """
        entry = self.entries[entry_index]
        scopes: Dict[str, str] = {}
        shared = self.shared
        for type_name in touched_types:
            if (entry.process_name, type_name) not in shared:
                continue
            key = (entry_index, type_name)
            old_q = self._q.get(key)
            new_q = self._fold(entry_index, type_name)
            if old_q is not None and (old_q == new_q).all():
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
            if (entry.process_name, type_name) in self.shared
        ]

    def _fold(self, entry_index: int, type_name: str) -> np.ndarray:
        entry = self.entries[entry_index]
        period = self.type_period[type_name]
        if type_name not in entry.state.dist.type_names:
            return np.zeros(period, dtype=float)
        return modulo_max(entry.state.dist.array(type_name), period)

    def _rebuild_process(self, process_name: str, type_name: str) -> bool:
        """Recompute the process maximum ``M``; returns whether it changed."""
        period = self.type_period[type_name]
        result = np.zeros(period, dtype=float)
        entries = self.entries
        for index in self._process_entries.get(process_name, ()):
            if type_name in entries[index].state.dist.type_names:
                np.maximum(result, self.block_q(index, type_name), out=result)
        key = (process_name, type_name)
        old = self._m.get(key)
        changed = old is None or not (old == result).all()
        self._m[key] = result
        if changed:
            rows = self._m_rows.get(type_name)
            if rows is not None:
                position = self._m_rowidx.get(key)
                if position is not None:
                    rows[position] = result
        return changed

    def _rebuild_system(self, type_name: str) -> None:
        period = self.type_period[type_name]
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
