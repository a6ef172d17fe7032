"""Tests for the instance-count lower bounds."""

from pathlib import Path

import pytest

import repro.analysis.bounds as bounds_module
from repro.analysis.bounds import (
    CandidateBounds,
    area_lower_bound,
    block_bound,
    bound_report,
    global_pool_bound,
    process_bound,
    process_slot_density,
)
from repro.api import load_problem
from repro.core.periods import (
    PeriodAssignment,
    enumerate_period_assignments_capped,
)
from repro.core.scheduler import ModuloSystemScheduler
from repro.ir.dfg import DataFlowGraph
from repro.ir.operation import OpKind
from repro.ir.process import Block, Process, SystemSpec
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.workloads import (
    corpus_system,
    paper_assignment,
    paper_periods,
    paper_system,
)

PAPER_SYS = Path(__file__).resolve().parents[2] / "examples" / "paper_system.sys"


def adds_block(n, deadline):
    graph = DataFlowGraph(name="g")
    for i in range(n):
        graph.add(f"a{i}", OpKind.ADD)
    return Block(name="main", graph=graph, deadline=deadline)


@pytest.fixture
def library():
    return default_library()


class TestBlockBound:
    def test_averaging(self, library):
        assert block_bound(adds_block(6, 3), library, "adder") == 2
        assert block_bound(adds_block(6, 6), library, "adder") == 1
        assert block_bound(adds_block(7, 3), library, "adder") == 3

    def test_unused_type_zero(self, library):
        assert block_bound(adds_block(2, 4), library, "multiplier") == 0


class TestProcessBound:
    def test_max_over_blocks(self, library):
        process = Process(name="p")
        process.add_block(adds_block(6, 3))
        b2 = adds_block(2, 4)
        b2.name = "other"
        process.add_block(b2)
        assert process_bound(process, library, "adder") == 2


class TestSlotDensity:
    def test_exact_when_period_divides(self, library):
        process = Process(name="p", blocks=[adds_block(6, 12)])
        assert process_slot_density(process, library, "adder", 4) == pytest.approx(0.5)

    def test_weaker_when_period_does_not_divide(self, library):
        process = Process(name="p", blocks=[adds_block(6, 10)])
        # coverage = ceil(10/4) = 3 -> density 6 / 12.
        assert process_slot_density(process, library, "adder", 4) == pytest.approx(0.5)


class TestGlobalPoolBound:
    def make(self, sizes, deadline=12, period=4):
        library = default_library()
        system = SystemSpec(name="s")
        for index, n in enumerate(sizes):
            process = Process(name=f"p{index}")
            process.add_block(adds_block(n, deadline))
            system.add_process(process)
        assignment = ResourceAssignment(library)
        assignment.make_global("adder", [f"p{i}" for i in range(len(sizes))])
        periods = PeriodAssignment({"adder": period})
        return system, library, assignment, periods

    def test_density_sum(self):
        system, library, assignment, periods = self.make([6, 6])
        # densities 0.5 + 0.5 -> pool >= 1.
        assert global_pool_bound(system, library, assignment, periods, "adder") == 1

    def test_per_member_floor(self):
        system, library, assignment, periods = self.make([12, 2])
        # p0 alone needs ceil(12/12) = 1; densities sum to 7/6 -> 2.
        assert global_pool_bound(system, library, assignment, periods, "adder") == 2

    def test_bound_is_sound_against_scheduler(self):
        system, library, assignment, periods = self.make([5, 4, 3])
        bound = global_pool_bound(system, library, assignment, periods, "adder")
        result = ModuloSystemScheduler(library).schedule(system, assignment, periods)
        assert result.global_instances("adder") >= bound


class TestBoundReport:
    def test_paper_system_bounds_hold(self):
        system, library = paper_system()
        result = ModuloSystemScheduler(library).schedule(
            system, paper_assignment(library), paper_periods()
        )
        report = bound_report(result)
        for type_name, entry in report.items():
            assert entry["achieved"] >= entry["bound"], type_name
        # The multiplier pool is provably near-optimal: bound 2 (densities
        # 3 * 8/30 + 2 * 6/15 = 1.6), achieved 2.
        assert report["multiplier"]["bound"] == 2

    def test_local_run_bounds(self):
        system, library = paper_system()
        result = ModuloSystemScheduler(library).schedule(
            system, ResourceAssignment.all_local(library)
        )
        report = bound_report(result)
        for entry in report.values():
            assert entry["achieved"] >= entry["bound"]
        # Locally every process needs >= 1 of each type it uses; the
        # deadline-25 wave filter needs ceil(26/25) = 2 adders.
        assert report["adder"]["bound"] == 6
        assert report["subtracter"]["bound"] == 2


def counted_type_bounds(monkeypatch):
    """Count the :func:`type_instance_bound` calls CandidateBounds makes."""
    calls = []
    original = bounds_module.type_instance_bound

    def counting(*args, **kwargs):
        calls.append(args[-1])
        return original(*args, **kwargs)

    monkeypatch.setattr(bounds_module, "type_instance_bound", counting)
    return calls


def long_block_system():
    """A 300-step block whose two forced adders sit past the widening cut.

    With adder period 4 the block spans 75 windows.  A subtracter period
    of 4 leaves the widening limit at its floor of 64 windows, so the
    interval analysis drops the tail; a subtracter period of 300 raises
    the limit to 75 and keeps it.  The adder bound therefore reads the
    subtracter period through the process grid.
    """
    library = default_library()
    system = SystemSpec(name="long")
    graph = DataFlowGraph(name="g1")
    for i in range(299):
        graph.add(f"s{i}", OpKind.SUB)
        if i:
            graph.add_edge(f"s{i - 1}", f"s{i}")
    for add in ("a0", "a1"):
        graph.add(add, OpKind.ADD)
        graph.add_edge("s298", add)
    system.add_process(
        Process(name="p1", blocks=[Block(name="main", graph=graph, deadline=300)])
    )
    small = DataFlowGraph(name="g2")
    small.add("a0", OpKind.ADD)
    small.add("s0", OpKind.SUB)
    system.add_process(
        Process(name="p2", blocks=[Block(name="main", graph=small, deadline=300)])
    )
    assignment = ResourceAssignment(library)
    assignment.make_global("adder", ["p1", "p2"])
    assignment.make_global("subtracter", ["p1", "p2"])
    return system, library, assignment


class TestCandidateBounds:
    @pytest.mark.parametrize("use_intervals", [True, False])
    def test_paper_sweep_one_call_per_type_and_period(
        self, monkeypatch, use_intervals
    ):
        problem = load_problem(PAPER_SYS)
        candidates, _ = enumerate_period_assignments_capped(
            problem.system, problem.assignment, limit=500
        )
        expected = [
            area_lower_bound(
                problem.system,
                problem.library,
                problem.assignment,
                candidate,
                use_intervals=use_intervals,
            )
            for candidate in candidates
        ]
        calls = counted_type_bounds(monkeypatch)
        bounds = CandidateBounds(
            problem.system,
            problem.library,
            problem.assignment,
            use_intervals=use_intervals,
        )
        assert [bounds.area(candidate) for candidate in candidates] == expected
        pairs = {
            (name, candidate.period(name))
            for candidate in candidates
            for name in problem.assignment.global_types
        }
        assert len(candidates) == 73
        assert len(pairs) == 18
        assert len(calls) == len(pairs)

    def test_corpus_instance_matches_area_lower_bound(self):
        instance = corpus_system(6, seed=1)
        candidates, _ = enumerate_period_assignments_capped(
            instance.system, instance.assignment, limit=40
        )
        bounds = CandidateBounds(
            instance.system, instance.library, instance.assignment
        )
        for candidate in candidates:
            assert bounds.area(candidate) == area_lower_bound(
                instance.system,
                instance.library,
                instance.assignment,
                candidate,
            ), candidate

    def test_long_block_bound_reads_the_grid(self):
        system, library, assignment = long_block_system()
        candidates = [
            PeriodAssignment({"adder": 4, "subtracter": period})
            for period in (4, 300)
        ]
        adder = [
            bounds_module.type_instance_bound(
                system, library, assignment, candidate, "adder"
            )
            for candidate in candidates
        ]
        assert adder[0] != adder[1]
        bounds = CandidateBounds(system, library, assignment)
        assert [bounds.area(candidate) for candidate in candidates] == [
            area_lower_bound(system, library, assignment, candidate)
            for candidate in candidates
        ]
