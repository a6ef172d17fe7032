"""Tests for repro.scheduling.distribution."""

import numpy as np
import pytest

from repro.core import scheduler as scheduler_module
from repro.core.scheduler import ModuloSystemScheduler
from repro.errors import SchedulingError
from repro.ir.dfg import DataFlowGraph
from repro.ir.operation import OpKind
from repro.resources.library import ResourceLibrary, default_library
from repro.resources.types import resource_type
from repro.scheduling.distribution import BlockDistributions, occupancy_row
from repro.scheduling.forces import area_weights
from repro.scheduling.state import BlockState
from repro.scheduling.timeframes import FrameTable
from repro.workloads import paper_assignment, paper_periods, paper_system


class TestOccupancyRow:
    def test_fixed_unit_op(self):
        row = occupancy_row(2, 2, 1, 5)
        assert row.tolist() == [0, 0, 1, 0, 0]

    def test_uniform_probability_over_frame(self):
        row = occupancy_row(0, 3, 1, 4)
        assert np.allclose(row, [0.25, 0.25, 0.25, 0.25])

    def test_multicycle_occupancy_accumulates(self):
        # Frame [0,1], occupancy 2: starts at 0 covers {0,1}, start 1 covers {1,2}.
        row = occupancy_row(0, 1, 2, 4)
        assert np.allclose(row, [0.5, 1.0, 0.5, 0.0])

    def test_probabilities_sum_to_occupancy(self):
        for occ in (1, 2, 3):
            row = occupancy_row(1, 4, occ, 10)
            assert row.sum() == pytest.approx(occ)

    def test_empty_frame_rejected(self):
        with pytest.raises(SchedulingError, match="empty frame"):
            occupancy_row(3, 2, 1, 5)

    def test_overflowing_horizon_rejected(self):
        with pytest.raises(SchedulingError, match="horizon"):
            occupancy_row(3, 4, 2, 5)

    def test_vectorized_matches_reference_loop(self):
        """The sliding-window formulation must equal the per-start loop
        it replaced, bit-for-bit (exact zeros outside the span)."""

        def reference(lo, hi, occupancy, horizon):
            row = np.zeros(horizon, dtype=float)
            weight = 1.0 / (hi - lo + 1)
            for start in range(lo, hi + 1):
                row[start : start + occupancy] += weight
            return row

        for lo, hi, occ, horizon in [
            (0, 0, 1, 1),
            (0, 3, 1, 4),
            (0, 1, 2, 4),
            (2, 6, 3, 12),
            (1, 9, 4, 20),
            (5, 5, 5, 10),
        ]:
            got = occupancy_row(lo, hi, occ, horizon)
            want = reference(lo, hi, occ, horizon)
            assert np.allclose(got, want)
            # Exact zeros where the op can never execute.
            assert not got[:lo].any()
            assert not got[hi + occ :].any()

    def test_tentative_rows_equal_occupancy_rows_bit_for_bit(self):
        """Every frame of every op, multicycle occupancy included, gives
        exactly ``occupancy_row``'s row, as a read-only view of the
        block's zero-padded band for the frame's ``(width, occupancy)``:
        one buffer per key, shared by every frame of that width and
        occupancy."""
        library = ResourceLibrary(
            [
                resource_type("adder", [OpKind.ADD], latency=1, area=1.0),
                resource_type("multiplier", [OpKind.MUL], latency=3, area=4.0),
            ]
        )
        graph = DataFlowGraph(name="b")
        graph.add("a1", OpKind.ADD)
        graph.add("m1", OpKind.MUL)
        graph.add("a2", OpKind.ADD)
        graph.add_edges([("a1", "m1"), ("m1", "a2")])
        frames = FrameTable(graph, library.latency_of, 12)
        dist = BlockDistributions(graph, library, frames)
        assert sorted(dist.occupancy_of.values()) == [1, 1, 3]
        bands = {}
        for op_id in graph.op_ids:
            occupancy = dist.occupancy_of[op_id]
            first, last = frames.frame(op_id)
            for lo in range(first, last + 1):
                for hi in range(lo, last + 1):
                    want = occupancy_row(lo, hi, occupancy, 12)
                    got = dist.tentative_row(op_id, lo, hi)
                    assert got.tobytes() == want.tobytes(), (op_id, lo, hi)
                    assert not got.flags.writeable
                    with pytest.raises(ValueError):
                        got[lo] = 0.0
                    band = bands.setdefault((hi - lo + 1, occupancy), got.base)
                    assert got.base is band, (op_id, lo, hi)
                    assert band.size == 2 * 12
        # The adders share each width's band; the multiplier has its own.
        assert {occupancy for _width, occupancy in bands} == {1, 3}
        one_step = dist.tentative_row("a1", 0, 0).base
        assert dist.tentative_row("a2", 5, 5).base is one_step
        assert dist.tentative_row("m1", 1, 1).base is not one_step

    def test_negative_start_rejected(self):
        with pytest.raises(SchedulingError, match="before step 0"):
            occupancy_row(-1, 2, 1, 6)


def make_block_distributions(deadline=6):
    library = default_library()
    graph = DataFlowGraph(name="b")
    graph.add("a1", OpKind.ADD)
    graph.add("m1", OpKind.MUL)
    graph.add("a2", OpKind.ADD)
    graph.add_edges([("a1", "m1"), ("m1", "a2")])
    frames = FrameTable(graph, library.latency_of, deadline)
    return frames, BlockDistributions(graph, library, frames)


class TestBlockDistributions:
    def test_type_names_deterministic(self):
        __, dist = make_block_distributions()
        assert dist.type_names == ["adder", "multiplier"]

    def test_ops_of_type(self):
        __, dist = make_block_distributions()
        assert dist.ops_of_type("adder") == ["a1", "a2"]
        assert dist.ops_of_type("multiplier") == ["m1"]
        assert dist.ops_of_type("subtracter") == []

    def test_distribution_is_sum_of_rows(self):
        __, dist = make_block_distributions()
        total = dist.row("a1") + dist.row("a2")
        assert np.allclose(dist.array("adder"), total)

    def test_unknown_type_rejected(self):
        __, dist = make_block_distributions()
        with pytest.raises(SchedulingError, match="no resource"):
            dist.array("divider")

    def test_pipelined_mul_occupies_one_step_per_start(self):
        __, dist = make_block_distributions()
        # Occupancy sums to 1 even though latency is 2 (pipelined).
        assert dist.row("m1").sum() == pytest.approx(1.0)

    def test_refresh_after_frame_reduction(self):
        frames, dist = make_block_distributions()
        changed = frames.reduce("a1", 0, 0)
        touched = dist.refresh(changed)
        assert "adder" in touched
        assert dist.row("a1")[0] == pytest.approx(1.0)
        assert np.allclose(dist.array("adder"), dist.row("a1") + dist.row("a2"))

    def test_tentative_row_does_not_mutate(self):
        __, dist = make_block_distributions()
        before = dist.array("adder").copy()
        dist.tentative_row("a1", 1, 1)
        assert np.allclose(dist.array("adder"), before)

    def test_peak(self):
        frames, dist = make_block_distributions()
        frames_changed = frames.reduce("a1", 0, 0)
        dist.refresh(frames_changed)
        assert dist.peak("adder") >= 1.0

    def test_total_probability_mass_conserved_under_refresh(self):
        frames, dist = make_block_distributions()
        mass_before = dist.array("adder").sum()
        dist.refresh(frames.reduce("a2", 4, 5))
        assert dist.array("adder").sum() == pytest.approx(mass_before)


class TestTentativeRowBands:
    """Current rows are the band views of the operations' frames too,
    so a commit installs a view and allocates no row."""

    def test_refresh_installs_the_new_band_view(self):
        frames, dist = make_block_distributions()
        lo, hi = frames.frame("a1")
        dist.refresh(frames.reduce("a1", lo, lo))
        row = dist.row("a1")
        assert row.base is dist.tentative_row("a2", 5, 5).base
        assert row.tobytes() == occupancy_row(lo, lo, 1, dist.horizon).tobytes()
        assert not row.flags.writeable

    def test_paper_schedule_rows_are_band_views(self, monkeypatch):
        states = []

        class RecordingState(BlockState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        monkeypatch.setattr(scheduler_module, "BlockState", RecordingState)
        system, library = paper_system()
        ModuloSystemScheduler(library, weights=area_weights(library)).schedule(
            system, paper_assignment(library), paper_periods()
        )
        assert states
        for state in states:
            dist = state.dist
            for op_id in state.graph.op_ids:
                lo, hi = state.frames.frame(op_id)
                row = dist.row(op_id)
                want = occupancy_row(lo, hi, dist.occupancy_of[op_id], dist.horizon)
                assert row.tobytes() == want.tobytes()
                assert not row.flags.writeable
                assert row.base is dist._bands[(hi - lo + 1, dist.occupancy_of[op_id])]
