"""Mutable scheduling state of one block: frames plus distribution graphs.

A :class:`BlockState` is what a force-directed scheduler iterates on: the
current partial solution (all time frames) together with the distribution
graphs derived from it.  It also evaluates the *tentative* effect of
placing an operation at a step — the distribution displacements from which
forces are computed — without mutating anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple

import numpy as np

from ..ir.process import Block
from ..obs.counters import FRAME_REDUCTIONS, count
from ..resources.library import ResourceLibrary
from .distribution import BlockDistributions
from .timeframes import FrameTable

#: Static neighbour structure of one operation: its latency, its direct
#: predecessors with their latencies, and its direct successors, both in
#: graph order.
OpLinks = Tuple[int, Tuple[Tuple[str, int], ...], Tuple[str, ...]]


@dataclass(frozen=True)
class ReductionEffect:
    """What one committed frame reduction actually perturbed.

    ``changed_ops`` are the operations whose frames changed (the reduced
    operation plus everything reached by precedence propagation);
    ``touched_types`` are the resource types whose distribution graph
    changed.  ``dropped_ends`` are the ``(operation, end)`` frame ends
    (end 0 the low end, 1 the high end) whose override sets
    (:func:`repro.scheduling.kernels.increment_stacks`) the commit may
    have changed: both ends of every changed operation, and each frame
    end of a direct neighbour that cut a changed operation under that
    operation's old frame.  An override set reads only its operation's
    frame and the frames of the neighbours its frame end cuts; frames
    only narrow, so a frame end that did not cut a neighbour's old frame
    cannot cut its new one, and its row never read the frame that
    moved.  ``dropped_ops`` are the operations with a dropped end.  The
    coupled kernel rebuilds the rows of ``dropped_ends`` and re-folds
    ``touched_types``.
    """

    changed_ops: FrozenSet[str]
    touched_types: FrozenSet[str]
    dropped_ends: FrozenSet[Tuple[str, int]] = frozenset()

    @property
    def dropped_ops(self) -> FrozenSet[str]:
        return frozenset(op_id for op_id, _end in self.dropped_ends)


class BlockState:
    """Frames + distributions of one block under construction.

    A tentative placement ``(op, start)`` displaces through override
    rows (:meth:`placement_deltas`).  The override set reads only the
    frames of the operation and of the direct neighbours it cuts, so it
    stays valid across commits until one of those frames moves;
    :meth:`commit_reduce_effect` reports exactly those frame ends as
    ``dropped_ends``.  The distributions the rows displace may move in
    the meantime — consumers read them at use time.
    """

    def __init__(self, block: Block, library: ResourceLibrary) -> None:
        self.block = block
        self.graph = block.graph
        self.library = library
        self.frames = FrameTable(block.graph, library.latency_of, block.deadline)
        self.dist = BlockDistributions(block.graph, library, self.frames)
        latency = self.frames._latency
        graph = self.graph
        self.links: Dict[str, OpLinks] = {
            op_id: (
                latency[op_id],
                tuple((pred, latency[pred]) for pred in graph.predecessors(op_id)),
                tuple(graph.successors(op_id)),
            )
            for op_id in graph.op_ids
        }
        #: Operations whose force footprint (own type plus the types of
        #: direct predecessors and successors) holds a guarded type: their
        #: displacement goes through the branch-max recombination, so
        #: batch kernels take their rows from :meth:`placement_deltas`
        #: instead of summing increments.
        type_of = self.dist.type_of
        has_guards = self.dist.has_guards
        self.guarded_ops: FrozenSet[str] = frozenset(
            op_id
            for op_id, (_latency, preds, succs) in self.links.items()
            if has_guards(type_of[op_id])
            or any(has_guards(type_of[pred]) for pred, _ in preds)
            or any(has_guards(type_of[succ]) for succ in succs)
        )
        # One tuple per distinct type order, shared by every batch
        # ``type_orders`` entry with that order.
        self._orders: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    @property
    def deadline(self) -> int:
        return self.block.deadline

    def placement_deltas(self, op_id: str, start: int) -> Dict[str, np.ndarray]:
        """Distribution displacements caused by tentatively placing
        ``op_id`` at ``start`` (eq. 5).

        Includes the operation's own displacement and the first-order
        displacements of direct predecessors/successors whose frames the
        placement would implicitly reduce.  Returns a mapping from resource
        type name to its displacement array; nothing is mutated.  A type
        without guarded operations displaces by the sum of its
        increments ``override - current``, in override order.  For
        types with guarded (conditional) operations the displacement is
        computed on the branch-max-combined distribution, so moves hidden
        inside a non-dominant branch cost nothing.
        """
        dist = self.dist
        overrides: Dict[str, np.ndarray] = {
            op_id: dist.tentative_row(op_id, start, start)
        }
        implied = self.frames.implied_neighbor_frames(op_id, start)
        for oid, (lo, hi) in implied.items():
            overrides[oid] = dist.tentative_row(oid, lo, hi)

        # First-occurrence order (own type, then predecessors', then
        # successors'), the order of the kernels' type orders: forces
        # sum per type in this order, so it must not follow set hashing.
        deltas: Dict[str, np.ndarray] = {}
        for oid, new_row in overrides.items():
            type_name = dist.type_of[oid]
            if dist.has_guards(type_name):
                if type_name not in deltas:
                    after = dist.tentative_array(type_name, overrides)
                    deltas[type_name] = after - dist.array(type_name)
            elif type_name in deltas:
                deltas[type_name] += new_row - dist.row(oid)
            else:
                deltas[type_name] = new_row - dist.row(oid)
        return deltas

    def commit_reduce(self, op_id: str, lo: int, hi: int) -> Set[str]:
        """Reduce a frame for real, propagate, refresh distributions.

        Returns the resource type names whose distribution graph changed:
        the ``touched_types`` of :meth:`commit_reduce_effect`, without the
        dropped frame ends only the coupled kernel reads.
        """
        count(FRAME_REDUCTIONS)
        return self.dist.refresh(self.frames.reduce_frames(op_id, lo, hi))

    def commit_reduce_effect(self, op_id: str, lo: int, hi: int) -> ReductionEffect:
        """Like :meth:`commit_reduce`, but also reports the changed ops.

        Incremental schedulers need both halves of the perturbation: the
        operations whose frames moved and the types whose distributions
        moved.  The effect also names the frame ends whose displacement
        records went stale (see :class:`ReductionEffect`).  Frames stay
        precedence-consistent (``lo(succ) >= lo(op) + latency(op)`` and
        ``hi(pred) <= hi(op) - latency(pred)``), so of an unchanged
        neighbour only one end can have cut a changed operation ``o``:
        a predecessor ``p``'s high end, when ``hi(p) + latency(p)``
        exceeds ``o``'s old low end, or a successor's low end ``s``,
        when ``s - latency(o)`` is below ``o``'s old high end.
        """
        count(FRAME_REDUCTIONS)
        frames = self.frames
        old_frames = frames.reduce_frames(op_id, lo, hi)
        touched = self.dist.refresh(old_frames)
        dropped: Set[Tuple[str, int]] = set()
        for oid, (old_lo, old_hi) in old_frames.items():
            dropped.add((oid, 0))
            dropped.add((oid, 1))
            latency, preds, succs = self.links[oid]
            for pred, pred_latency in preds:
                if frames._hi[pred] + pred_latency > old_lo:
                    dropped.add((pred, 1))
            for succ in succs:
                if frames._lo[succ] - latency < old_hi:
                    dropped.add((succ, 0))
        return ReductionEffect(
            frozenset(old_frames), frozenset(touched), frozenset(dropped)
        )

    def commit_fix(self, op_id: str, start: int) -> Set[str]:
        """Pin an operation to one step for real (classic FDS placement)."""
        return self.commit_reduce(op_id, start, start)
