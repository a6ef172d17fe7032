"""SystemSchedule walks per process, and their consumers in verify and bind.

``blocks_of`` walks a process's own blocks instead of filtering every
block schedule of the system, and instance counting skips the types a
process never uses.  These tests pin both against the plain
definitions they replace.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.api import Problem
from repro.binding.instances import bind_instances
from repro.core.periods import PeriodAssignment
from repro.core.result import SystemSchedule
from repro.core.verify import verify_system_schedule
from repro.ir.dfg import DataFlowGraph
from repro.ir.operation import OpKind
from repro.ir.process import Block, Process, SystemSpec
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.scheduling.schedule import BlockSchedule
from repro.workloads.corpus import corpus_system

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def filtered_blocks_of(result: SystemSchedule, process_name: str):
    """The definition ``blocks_of`` replaced: filter every block schedule."""
    return [
        (block, sched)
        for (process, block), sched in result.block_schedules.items()
        if process == process_name
    ]


def summed_instance_counts(result: SystemSchedule):
    """The definition ``instance_counts`` replaced: every (type, process)."""
    counts = {}
    for rtype in result.library.types:
        total = 0
        if result.assignment.is_global(rtype.name):
            total += result.global_instances(rtype.name)
        for process in result.system.processes:
            total += result.local_instances(process.name, rtype.name)
        if total:
            counts[rtype.name] = total
    return counts


def hand_built_result() -> SystemSchedule:
    """Three processes; p1 has two blocks, p3 uses only a local type."""
    library = default_library()
    system = SystemSpec(name="walks")
    schedules = {}

    def block(process, name, ops, starts, deadline):
        graph = DataFlowGraph(name=f"{process.name}-{name}")
        for op_id, kind in ops:
            graph.add(op_id, kind)
        process.add_block(Block(name=name, graph=graph, deadline=deadline))
        schedules[(process.name, name)] = BlockSchedule(
            graph=graph, library=library, starts=starts, deadline=deadline
        )

    p1 = Process(name="p1")
    block(p1, "init", [("a0", OpKind.ADD), ("a1", OpKind.ADD)], {"a0": 0, "a1": 0}, 2)
    block(p1, "loop", [("m0", OpKind.MUL)], {"m0": 0}, 4)
    p2 = Process(name="p2")
    block(p2, "main", [("a0", OpKind.ADD), ("m0", OpKind.MUL)], {"a0": 1, "m0": 0}, 4)
    p3 = Process(name="p3")
    block(p3, "main", [("s0", OpKind.SUB), ("s1", OpKind.SUB)], {"s0": 0, "s1": 0}, 2)
    for process in (p1, p2, p3):
        system.add_process(process)
    assignment = ResourceAssignment(library)
    assignment.make_global("adder", ["p1", "p2"])
    return SystemSchedule(
        system=system,
        library=library,
        assignment=assignment,
        periods=PeriodAssignment({"adder": 2}),
        block_schedules=schedules,
    )


@pytest.fixture(scope="module")
def paper_result() -> SystemSchedule:
    return repro.load_problem(str(EXAMPLES / "paper_system.sys")).schedule()


@pytest.fixture(scope="module")
def corpus_result() -> SystemSchedule:
    instance = corpus_system(4, seed=1)
    return Problem(
        instance.system, instance.library, instance.assignment, instance.periods
    ).schedule()


def _same_walks(result: SystemSchedule) -> None:
    for name in result.system.process_names + ["no-such-process"]:
        new = result.blocks_of(name)
        old = filtered_blocks_of(result, name)
        assert [block for block, _ in new] == [block for block, _ in old]
        assert all(a is b for (_, a), (_, b) in zip(new, old))


# ----------------------------------------------------------------------
# blocks_of
# ----------------------------------------------------------------------
def test_blocks_of_matches_the_filtered_definition_on_the_paper(paper_result):
    _same_walks(paper_result)


def test_blocks_of_matches_the_filtered_definition_by_hand():
    result = hand_built_result()
    _same_walks(result)
    assert [block for block, _ in result.blocks_of("p1")] == ["init", "loop"]
    del result.block_schedules[("p1", "init")]
    _same_walks(result)


# ----------------------------------------------------------------------
# Counting skips unused types without changing a count
# ----------------------------------------------------------------------
def test_types_used_names_each_process_types():
    result = hand_built_result()
    assert result.types_used("p1") == {"adder", "multiplier"}
    assert result.types_used("p3") == {"subtracter"}


def test_instance_counts_match_the_summed_definition(corpus_result):
    for result in (corpus_result, hand_built_result()):
        counts = result.instance_counts()
        assert counts == summed_instance_counts(result)
        assert list(counts) == list(summed_instance_counts(result))


def test_verify_reports_a_local_check_for_every_used_local_type(corpus_result):
    report = verify_system_schedule(corpus_result)
    assert report.ok
    local_checks = {c.name for c in report.checks if c.name.startswith("local ")}
    expected = set()
    for process in corpus_result.system.processes:
        for rtype in corpus_result.library.types:
            if corpus_result.assignment.shares_globally(rtype.name, process.name):
                continue
            if corpus_result.local_instances(process.name, rtype.name):
                expected.add(f"local {process.name}/{rtype.name}")
    assert local_checks == expected
    assert expected  # the corpus instance does use local types


# ----------------------------------------------------------------------
# Binding asks for each local pool once
# ----------------------------------------------------------------------
def test_bind_instances_asks_each_local_pool_once(corpus_result, monkeypatch):
    calls: Counter = Counter()
    real = SystemSchedule.local_instances

    def counting(self, process_name, type_name):
        calls[(process_name, type_name)] += 1
        return real(self, process_name, type_name)

    monkeypatch.setattr(SystemSchedule, "local_instances", counting)
    binding = bind_instances(corpus_result)
    assert calls, "the corpus instance binds local types"
    assert max(calls.values()) == 1
    assert len(binding.binding) == corpus_result.system.operation_count
