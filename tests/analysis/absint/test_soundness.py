"""Differential soundness of the residue-pressure intervals.

The abstract interpretation claims, per (type, slot residue class), a
lower/upper occupancy interval valid for *any* grid-admissible schedule.
These tests pit that claim against two independent oracles over the
paper system, a block longer than the widening floor, ten corpus
instances, and twenty random systems:

* the exact symbolic certifier (full coset enumeration, no fast path)
  — its proven peak must land inside the problem-mode interval and
  under the schedule-mode upper bound;
* the cycle-accurate simulator — every observed occupancy sample must
  stay at or below the interval upper bounds, for every seed.

Plus the adversarial direction: a hand-tightened interval fast-path
proof must be rejected by the checker's independent re-derivation.
"""

import dataclasses

import pytest

from repro.analysis.absint import (
    MODEL_ANY,
    analyze_problem,
    analyze_schedule,
)
from repro.analysis.static import (
    METHOD_INTERVAL,
    Certificate,
    certify,
    check_certificate,
)
from repro.api import Problem
from repro.core.periods import PeriodAssignment
from repro.ir.process import Block, Process, SystemSpec
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.sim.simulator import SystemSimulator
from repro.workloads import (
    corpus_system,
    paper_assignment,
    paper_periods,
    paper_system,
    random_dfg,
)
from tests.conftest import long_block_system

#: Simulation sampling: seeds x cycles per soundness subject.
SIM_SEEDS = (0, 1)
SIM_CYCLES = 300


# ----------------------------------------------------------------------
# Subjects: paper + long block + 10 corpus instances + 20 random systems
# ----------------------------------------------------------------------
def paper_problem() -> Problem:
    system, library = paper_system()
    return Problem(system, library, paper_assignment(library), paper_periods())


def corpus_problem(seed: int) -> Problem:
    instance = corpus_system(3, seed=seed)
    return Problem(
        instance.system,
        instance.library,
        instance.assignment,
        instance.periods,
    )


def random_problem(seed: int) -> Problem:
    """A small random multi-process system with everything shared."""
    library = default_library()
    system = SystemSpec(name=f"rand-s{seed}")
    processes = 2 + seed % 2
    for index in range(processes):
        graph = random_dfg(4 + (seed + index) % 5, seed=seed * 31 + index)
        deadline = graph.critical_path_length(library.latency_of) + 2 + seed % 3
        process = Process(name=f"p{index}")
        process.add_block(Block(name="main", graph=graph, deadline=deadline))
        system.add_process(process)
    assignment = ResourceAssignment.all_global(library, system)
    periods = PeriodAssignment(
        {type_name: 2 + seed % 3 for type_name in assignment.global_types}
    )
    return Problem(system, library, assignment, periods)


def long_block_problem() -> Problem:
    """A block longer than the widening floor: its must-busy tail counts."""
    system, library, assignment = long_block_system()
    periods = PeriodAssignment({"adder": 4, "subtracter": 4})
    return Problem(system, library, assignment, periods)


CORPUS_SEEDS = range(10)
RANDOM_SEEDS = range(20)

SUBJECTS = (
    [
        pytest.param(paper_problem, None, id="paper"),
        pytest.param(long_block_problem, None, id="long-block"),
    ]
    + [
        pytest.param(corpus_problem, seed, id=f"corpus-s{seed}")
        for seed in CORPUS_SEEDS
    ]
    + [
        pytest.param(random_problem, seed, id=f"rand-s{seed}")
        for seed in RANDOM_SEEDS
    ]
)


def build(factory, seed):
    problem = factory() if seed is None else factory(seed)
    problem.validate()
    return problem


# ----------------------------------------------------------------------
# Interval ⊇ certifier exact peak
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factory,seed", SUBJECTS)
def test_intervals_contain_the_exact_peak(factory, seed):
    problem = build(factory, seed)
    if not problem.assignment.global_types:
        pytest.skip("no shared types in this draw")
    result = problem.schedule()
    certificate = certify(result, fast_path=False)
    assert certificate.safe, certificate.verdict
    pre = analyze_problem(problem)
    post = analyze_schedule(result)
    for proof in certificate.types:
        before = pre.pressure(proof.type_name)
        after = post.pressure(proof.type_name)
        # Problem mode brackets the exact enumerated peak: the deployed
        # schedule is one grid-admissible schedule, so its worst-case
        # rotation peak sits inside [lower, upper].
        assert before.lower_peak <= proof.proven_peak, proof.type_name
        assert proof.proven_peak <= before.upper_peak, proof.type_name
        # Schedule mode refines problem mode and still dominates the
        # enumerated peak of its own rotations.
        assert after.lower_peak <= proof.proven_peak <= after.upper_peak
        assert before.lower_peak <= after.lower_peak
        assert after.upper_peak <= before.upper_peak
        # The derived pool always covers the proven demand.
        assert proof.pool is not None and proof.proven_peak <= proof.pool


@pytest.mark.parametrize(
    "factory,seed",
    [pytest.param(paper_problem, None, id="paper")]
    + [
        pytest.param(random_problem, seed, id=f"rand-s{seed}")
        for seed in RANDOM_SEEDS
    ],
)
def test_any_offset_intervals_contain_the_any_offset_peak(factory, seed):
    """Worst-case-over-rotations enumeration stays inside the ANY model."""
    problem = build(factory, seed)
    if not problem.assignment.global_types:
        pytest.skip("no shared types in this draw")
    result = problem.schedule()
    certificate = certify(result, offset_model=MODEL_ANY, fast_path=False)
    pre = analyze_problem(problem, offset_model=MODEL_ANY)
    for proof in certificate.types:
        entry = pre.pressure(proof.type_name)
        assert entry.lower_peak <= proof.proven_peak <= entry.upper_peak


# ----------------------------------------------------------------------
# Interval ⊇ every simulated occupancy sample
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factory,seed", SUBJECTS)
def test_intervals_contain_every_simulated_sample(factory, seed):
    problem = build(factory, seed)
    if not problem.assignment.global_types:
        pytest.skip("no shared types in this draw")
    result = problem.schedule()
    pre = analyze_problem(problem)
    post = analyze_schedule(result)
    for sim_seed in SIM_SEEDS:
        stats = SystemSimulator(result, seed=sim_seed).run(SIM_CYCLES)
        assert stats.ok, stats.trace.violations
        for type_name in problem.assignment.global_types:
            observed = stats.peak_usage.get(type_name, 0)
            assert observed <= post.pressure(type_name).upper_peak, (
                type_name,
                sim_seed,
            )
            assert observed <= pre.pressure(type_name).upper_peak


# ----------------------------------------------------------------------
# Adversarial: tightened fast-path intervals never pass the checker
# ----------------------------------------------------------------------
def with_proof(certificate: Certificate, proof) -> Certificate:
    types = [
        proof if p.type_name == proof.type_name else p
        for p in certificate.types
    ]
    return dataclasses.replace(certificate, types=types)


def test_hand_tightened_interval_is_rejected():
    problem = paper_problem()
    result = problem.schedule()
    certificate = certify(result)  # fast path on
    proofs = [p for p in certificate.types if p.method == METHOD_INTERVAL]
    assert proofs, "paper system should admit interval fast-path proofs"
    assert check_certificate(certificate, result) == []
    for proof in proofs:
        tightened = dataclasses.replace(proof, proven_peak=proof.proven_peak - 1)
        problems = check_certificate(with_proof(certificate, tightened), result)
        assert problems, proof.type_name
        assert any("interval" in problem for problem in problems)
