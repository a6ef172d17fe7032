"""Property test: the kernel's persistent state equals a fresh kernel's.

The coupled scheduler's :class:`_SystemKernel` keeps, across commits,
per-(block, type) row tables of increment rows with a holds mask, a
(type-position × slot-side) matrix of folded per-type values, the
constants summed from it, and the pre-weighted ``w * delta_S`` rows
``G`` with their dots.  A commit rebuilds, in place, only the rows of
the frame ends whose override sets it dropped (both ends of each
changed operation, and each neighbour's end that cut one) and re-folds
the held rows of the touched types.  Random commit sequences drive the
paper system, a guarded (conditional-branch) system, three multi-block
sibling systems and ``corpus_system(10)``; after every commit each
unfixed slot side must match a kernel freshly constructed over the same
block states and coupling:

* held rows and their value cells (which place each type in the frame
  end's type order), assigned balanced types, ``eta`` and ``G`` rows bit
  for bit (rows are elementwise sums, like ``placement_deltas``);
* constants and ``G`` dots within ``1e-12`` (batched matrix products
  are not bitwise-stable across batch shapes).

The kernel must also actually keep rows across commits
(``force_cache_hits``), hold rows with several overrides of one type,
rebuild an operation whose own frame stayed put when a neighbour's
frame moved, keep the rows of a neighbour that never cut the changed
operation, and rebuild only the frame end of a neighbour that cut.
"""

import numpy as np
import pytest

from repro.core.scheduler import (
    ModuloSystemScheduler,
    _Entry,
    _GlobalCoupling,
    _SystemKernel,
)
from repro.obs import Tracer
from repro.obs.audit import CACHE_FRESH
from repro.scheduling.state import BlockState

from test_counter_pins import _corpus, _guarded, _paper, _siblings

#: Absolute agreement of constants and dots with a fresh kernel.
TOLERANCE = 1e-12

SUBJECTS = {
    "paper": (_paper, 40),
    "guarded": (_guarded, 40),
    "siblings0": (lambda: _siblings(0), 40),
    "siblings1": (lambda: _siblings(1), 40),
    "siblings2": (lambda: _siblings(2), 40),
    "corpus10": (lambda: _corpus(10), 25),
}


def build(factory):
    library, system, assignment, periods, weights = factory()
    scheduler = ModuloSystemScheduler(library, weights=weights)
    entries = [
        _Entry(process.name, block, BlockState(block, library))
        for process, block in system.iter_blocks()
    ]
    coupling = _GlobalCoupling(entries, assignment, periods)
    kernel = scheduler._selector(entries, coupling)
    kernel.select()
    return scheduler, entries, coupling, kernel


def commit(entries, coupling, kernel, index, op_id, bounds):
    """One committed reduction, seen by the coupling and the kernel."""
    effect = entries[index].state.commit_reduce_effect(op_id, *bounds)
    scopes = coupling.refresh(index, effect.touched_types)
    kernel.note_commit(index, effect, scopes)
    return effect, scopes


def random_commit(entries, coupling, kernel, rng):
    mobile = [
        index
        for index, entry in enumerate(entries)
        if entry.state.frames.unfixed_count()
    ]
    if not mobile:
        return None
    index = mobile[int(rng.integers(len(mobile)))]
    unfixed = entries[index].state.frames.unfixed()
    op_id = unfixed[int(rng.integers(len(unfixed)))]
    lo, hi = entries[index].state.frames.frame(op_id)
    bounds = (lo + 1, hi) if rng.integers(2) else (lo, hi - 1)
    return (index, *commit(entries, coupling, kernel, index, op_id, bounds))


def assert_matches_fresh(scheduler, entries, coupling, kernel):
    """Every unfixed slot side of ``kernel`` against a fresh kernel."""
    fresh = _SystemKernel(scheduler, entries, coupling)
    fresh.select()
    n = kernel._n
    for index, entry in enumerate(entries):
        for type_name, table in kernel._tables[index].items():
            sides = np.flatnonzero(kernel._held[index][table.pos])
            other = fresh._tables[index].get(type_name)
            if other is None:
                assert not sides.size, type_name
                continue
            assert (
                sides.tolist()
                == np.flatnonzero(fresh._held[index][other.pos]).tolist()
            ), type_name
            rows, fresh_rows = table.row_of[sides], other.row_of[sides]
            assert table.delta[rows].tobytes() == other.delta[fresh_rows].tobytes()
            assert table.cells[rows].tolist() == other.cells[fresh_rows].tolist()
        for op_id in entry.state.frames.unfixed():
            slot = kernel.slot_of[index][op_id]
            assert kernel._eta[slot] == fresh._eta[slot], op_id
            for col in (slot, slot + n):
                where = f"{entry.process_name}/{entry.block.name} {op_id} col {col}"
                assigned = kernel._assigned[col]
                assert assigned == fresh._assigned[col], where
                assert kernel._const_flat[col] == pytest.approx(
                    fresh._const_flat[col], rel=0, abs=TOLERANCE
                ), where
                for type_name in assigned:
                    row = kernel._gslot_flat[type_name][col]
                    fresh_row = fresh._gslot_flat[type_name][col]
                    assert row and fresh_row, where
                    assert (
                        kernel._g[type_name][row].tobytes()
                        == fresh._g[type_name][fresh_row].tobytes()
                    ), f"{where} G row of {type_name}"
                    assert kernel._gdots[type_name][row] == pytest.approx(
                        fresh._gdots[type_name][fresh_row], rel=0, abs=TOLERANCE
                    ), f"{where} dot of {type_name}"


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_persistent_state_equals_a_fresh_kernel_after_every_commit(name):
    factory, commits = SUBJECTS[name]
    scheduler, entries, coupling, kernel = build(factory)
    rng = np.random.default_rng(sorted(SUBJECTS).index(name))
    tracer = Tracer()
    assert_matches_fresh(scheduler, entries, coupling, kernel)
    for _ in range(commits):
        with tracer.activate():
            if random_commit(entries, coupling, kernel, rng) is None:
                break
            kernel.select()
        assert_matches_fresh(scheduler, entries, coupling, kernel)
    counters = tracer.counters.as_dict()
    assert counters["force_cache_misses"] > 0
    if name != "guarded":
        # Rows survive commits: some slot sides were re-folded, not
        # rebuilt.  (Every operation of the guarded subject has a
        # guarded footprint and is rebuilt whenever a type moves.)
        assert counters["force_cache_hits"] > 0


def test_rows_with_several_overrides_of_one_type_are_stacked():
    """The paper system's adder chains cut two neighbours of one type:
    such a frame end keeps one row of the type, the oracle's sum."""
    _scheduler, entries, _coupling, kernel = build(_paper)
    found = 0
    for index, entry in enumerate(entries):
        state = entry.state
        type_of = state.dist.type_of
        for op_id in state.frames.unfixed():
            slot = kernel.slot_of[index][op_id]
            for side, end in enumerate(state.frames.frame(op_id)):
                implied = state.frames.implied_neighbor_frames(op_id, end)
                types = [type_of[op_id]] + [type_of[oid] for oid in implied]
                repeated = {name for name in types if types.count(name) > 1}
                for type_name in repeated:
                    table = kernel._tables[index][type_name]
                    local = 2 * (slot - kernel._bounds[index][0]) + side
                    assert kernel._held[index][table.pos, local], (op_id, end)
                    row = table.row_of[local]
                    assert table.cols[row] == slot + side * kernel._n
                    want = state.placement_deltas(op_id, end)[type_name]
                    assert table.delta[row].tobytes() == want.tobytes()
                    found += 1
    assert found


def test_commit_moving_only_a_neighbour_rebuilds_the_rows():
    """The op's own frame stays put, but its rows hold the old row of a
    neighbour whose frame the commit moved: they must be rebuilt."""
    scheduler, entries, coupling, kernel = build(_paper)
    for index, entry in enumerate(entries):
        state = entry.state
        for op_id in state.frames.unfixed():
            _latency, preds, succs = state.links[op_id]
            for neighbour in [pred for pred, _ in preds] + list(succs):
                n_lo, n_hi = state.frames.frame(neighbour)
                if n_lo == n_hi:
                    continue
                frame = state.frames.frame(op_id)
                effect, _scopes = commit(
                    entries, coupling, kernel, index, neighbour, (n_lo + 1, n_hi)
                )
                if effect.changed_ops != {neighbour}:
                    # Propagation moved more than the neighbour; start
                    # over on fresh states.
                    scheduler, entries, coupling, kernel = build(_paper)
                    state = entries[index].state
                    continue
                assert state.frames.frame(op_id) == frame
                assert op_id in effect.dropped_ops
                assert op_id in kernel._drop[index]
                kinds = {}
                kernel._classify_entry(index, kinds)
                kernel._dirty.discard(index)
                assert kinds[kernel.slot_of[index][op_id]] == CACHE_FRESH
                kernel.select()
                assert_matches_fresh(scheduler, entries, coupling, kernel)
                return
    raise AssertionError("no neighbour-only commit found")


def _uncut_neighbour_commit(entries):
    """A commit on one operation whose frame no frame end of a mobile
    neighbour cut, and which changes no other frame: ``(index, op_id,
    neighbour, bounds)``, or ``None``."""
    for index, entry in enumerate(entries):
        state = entry.state
        frames = state.frames
        for op_id in frames.unfixed():
            lo, hi = frames.frame(op_id)
            latency, preds, succs = state.links[op_id]
            uncut = [
                pred
                for pred, pred_latency in preds
                if frames.hi(pred) + pred_latency <= lo
            ] + [succ for succ in succs if frames.lo(succ) - latency >= hi]
            for neighbour in uncut:
                if frames.is_fixed(neighbour):
                    continue
                # Raising the low end moves no successor, lowering the
                # high end no predecessor, when each keeps its slack.
                if all(lo + 1 + latency <= frames.lo(succ) for succ in succs):
                    return index, op_id, neighbour, (lo + 1, hi)
                if all(hi - 1 - pl >= frames.hi(pred) for pred, pl in preds):
                    return index, op_id, neighbour, (lo, hi - 1)
    return None


def test_commit_keeps_the_rows_of_a_neighbour_that_never_cut_it():
    """A neighbour none of whose frame ends cut the changed operation's
    old frame never read that frame: its rows survive the commit, and
    the kernel still equals a fresh one."""
    scheduler, entries, coupling, kernel = build(_paper)
    rng = np.random.default_rng(0)
    found = _uncut_neighbour_commit(entries)
    while found is None:
        # Wide initial frames cut every neighbour; narrow them first.
        assert random_commit(entries, coupling, kernel, rng) is not None
        kernel.select()
        found = _uncut_neighbour_commit(entries)
    index, op_id, neighbour, bounds = found
    effect, _scopes = commit(entries, coupling, kernel, index, op_id, bounds)
    assert effect.changed_ops == {op_id}
    assert op_id in effect.dropped_ops
    assert neighbour not in effect.dropped_ops
    assert neighbour not in kernel._drop[index]
    kinds = {}
    kernel._classify_entry(index, kinds)
    kernel._dirty.discard(index)
    assert kinds[kernel.slot_of[index][op_id]] == CACHE_FRESH
    assert kinds.get(kernel.slot_of[index][neighbour]) != CACHE_FRESH
    kernel.select()
    assert_matches_fresh(scheduler, entries, coupling, kernel)


def test_a_neighbour_rebuilds_only_the_frame_end_that_cut():
    """Frames stay precedence-consistent, so only a predecessor's high
    end or a successor's low end can cut a changed operation: the other
    end keeps its rows, and the kernel builds exactly the dropped ends
    of the operations that stay mobile."""
    scheduler, entries, coupling, kernel = build(_paper)
    tracer = Tracer()
    half = 0
    rng = np.random.default_rng(1)
    for _ in range(40):
        with tracer.activate():
            index, effect, _scopes = random_commit(entries, coupling, kernel, rng)
            frames = entries[index].state.frames
            mobile = [
                (op_id, end)
                for op_id, end in effect.dropped_ends
                if not frames.is_fixed(op_id)
            ]
            before = tracer.counters.as_dict().get("force_cache_misses", 0)
            kernel.select()
        built = tracer.counters.as_dict()["force_cache_misses"] - before
        assert built == len(mobile)
        links = entries[index].state.links
        for op_id, end in effect.dropped_ends:
            if op_id in effect.changed_ops:
                continue
            _latency, preds, succs = links[op_id]
            # The low end can only have cut a changed predecessor, the
            # high end a changed successor.
            cut = [pred for pred, _ in preds] if end == 0 else list(succs)
            assert effect.changed_ops.intersection(cut), (op_id, end)
            half += (op_id, 1 - end) not in effect.dropped_ends
        assert_matches_fresh(scheduler, entries, coupling, kernel)
    assert half
