"""Tests for BlockSchedule (result container and validation)."""

import pytest

from repro.errors import GraphError, VerificationError
from repro.ir.dfg import DataFlowGraph
from repro.ir.operation import OpKind
from repro.resources.library import default_library
from repro.scheduling.schedule import BlockSchedule


def make_schedule(starts, deadline=6):
    library = default_library()
    graph = DataFlowGraph(name="b")
    graph.add("a1", OpKind.ADD)
    graph.add("m1", OpKind.MUL)
    graph.add("a2", OpKind.ADD)
    graph.add_edges([("a1", "m1"), ("m1", "a2")])
    return BlockSchedule(
        graph=graph, library=library, starts=starts, deadline=deadline
    )


class TestAccessors:
    def test_start_finish_makespan(self):
        sched = make_schedule({"a1": 0, "m1": 1, "a2": 3})
        assert sched.start("m1") == 1
        assert sched.finish("m1") == 3  # latency 2
        assert sched.finish("a2") == 4
        assert sched.makespan == 4


class TestValidation:
    def test_valid_schedule_passes(self):
        make_schedule({"a1": 0, "m1": 1, "a2": 3}).validate()

    def test_missing_operation_rejected(self):
        with pytest.raises(VerificationError, match="unscheduled"):
            make_schedule({"a1": 0, "m1": 1}).validate()

    def test_negative_start_rejected(self):
        with pytest.raises(VerificationError, match="before step 0"):
            make_schedule({"a1": -1, "m1": 1, "a2": 3}).validate()

    def test_deadline_violation_rejected(self):
        with pytest.raises(VerificationError, match="past"):
            make_schedule({"a1": 0, "m1": 1, "a2": 3}, deadline=3).validate()

    def test_precedence_violation_rejected(self):
        with pytest.raises(VerificationError, match="precedence"):
            make_schedule({"a1": 0, "m1": 1, "a2": 2}).validate()  # m1 ends at 3


class TestUsage:
    def test_usage_profile_counts_occupancy(self):
        sched = make_schedule({"a1": 0, "m1": 1, "a2": 3})
        adders = sched.usage_profile("adder")
        assert adders.tolist() == [1, 0, 0, 1, 0, 0]
        # Pipelined multiplier occupies only its start step.
        mults = sched.usage_profile("multiplier")
        assert mults.tolist() == [0, 1, 0, 0, 0, 0]

    def test_peak_usage(self):
        sched = make_schedule({"a1": 0, "m1": 1, "a2": 3})
        assert sched.peak_usage("adder") == 1
        assert sched.peak_usage("subtracter") == 0

    def test_peaks_lists_used_types(self):
        sched = make_schedule({"a1": 0, "m1": 1, "a2": 3})
        assert sched.peaks() == {"adder": 1, "multiplier": 1}

    def test_concurrent_ops_counted(self):
        library = default_library()
        graph = DataFlowGraph(name="p")
        graph.add("x", OpKind.ADD)
        graph.add("y", OpKind.ADD)
        sched = BlockSchedule(
            graph=graph, library=library, starts={"x": 0, "y": 0}, deadline=2
        )
        assert sched.peak_usage("adder") == 2

    def test_profile_reads_starts_on_every_call(self):
        """The per-type operation index is cached; the starts are not."""
        sched = make_schedule({"a1": 0, "m1": 1, "a2": 3})
        assert sched.usage_profile("adder").tolist() == [1, 0, 0, 1, 0, 0]
        sched.starts["a2"] = 4
        assert sched.usage_profile("adder").tolist() == [1, 0, 0, 0, 1, 0]
        del sched.starts["a2"]
        assert sched.usage_profile("adder").tolist() == [1, 0, 0, 0, 0, 0]

    def test_stray_start_raises_graph_error(self):
        sched = make_schedule({"a1": 0, "m1": 1, "a2": 3})
        sched.usage_profile("adder")
        sched.starts["ghost"] = 2
        with pytest.raises(GraphError, match="ghost"):
            sched.usage_profile("multiplier")


class TestRendering:
    def test_table_mentions_steps(self):
        text = make_schedule({"a1": 0, "m1": 1, "a2": 3}).table()
        assert "step   0" in text
        assert "step   3" in text
