"""Tests for repro.scheduling.forces and state (placement deltas)."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.ir.dfg import DataFlowGraph
from repro.ir.operation import OpKind
from repro.ir.process import Block
from repro.resources.library import default_library
from repro.scheduling.forces import (
    area_weights,
    hooke_force,
    placement_force,
    uniform_weights,
)
from repro.scheduling.state import BlockState


def two_add_block(deadline=2):
    """Two independent additions in a 2-step range (figure-2 flavor)."""
    graph = DataFlowGraph(name="b")
    graph.add("a1", OpKind.ADD)
    graph.add("a2", OpKind.ADD)
    return Block(name="b", graph=graph, deadline=deadline)


class TestHookeForce:
    def test_zero_delta_zero_force(self):
        d = np.array([1.0, 2.0])
        assert hooke_force(d, np.zeros(2), 0.0) == 0.0

    def test_plain_hooke_matches_dot_product(self):
        d = np.array([1.0, 2.0, 0.5])
        delta = np.array([0.5, -0.25, -0.25])
        assert hooke_force(d, delta, 0.0) == pytest.approx(
            0.5 * 1 - 0.25 * 2 - 0.25 * 0.5
        )

    def test_lookahead_adds_quadratic_term(self):
        d = np.zeros(2)
        delta = np.array([1.0, -1.0])
        assert hooke_force(d, delta, 1 / 3) == pytest.approx(2 / 3)

    def test_moving_onto_peak_is_positive(self):
        d = np.array([2.0, 0.5])
        delta = np.array([0.5, -0.5])  # concentrate on the peak
        assert hooke_force(d, delta, 0.0) > 0

    def test_moving_off_peak_is_negative(self):
        d = np.array([2.0, 0.5])
        delta = np.array([-0.5, 0.5])
        assert hooke_force(d, delta, 0.0) < 0


class TestWeights:
    def test_uniform_weights(self):
        weights = uniform_weights(default_library())
        assert set(weights.values()) == {1.0}

    def test_area_weights_match_library(self):
        weights = area_weights(default_library())
        assert weights["multiplier"] == 4.0
        assert weights["adder"] == 1.0


class TestPlacementDeltas:
    def test_delta_sums_to_zero(self):
        """Displacement conserves probability mass (eq. 5)."""
        state = BlockState(two_add_block(4), default_library())
        for step in range(4):
            deltas = state.placement_deltas("a1", step)
            assert deltas["adder"].sum() == pytest.approx(0.0)

    def test_self_delta_shape(self):
        state = BlockState(two_add_block(2), default_library())
        deltas = state.placement_deltas("a1", 0)
        # From uniform [0.5, 0.5] to [1, 0]: delta [0.5, -0.5].
        assert np.allclose(deltas["adder"], [0.5, -0.5])

    def test_neighbor_deltas_included(self):
        library = default_library()
        graph = DataFlowGraph(name="c")
        graph.add("a1", OpKind.ADD)
        graph.add("a2", OpKind.ADD)
        graph.add_edge("a1", "a2")
        state = BlockState(Block(name="c", graph=graph, deadline=3), library)
        # Placing a1 at 1 forces a2 to 2 — its delta appears too.
        deltas = state.placement_deltas("a1", 1)
        assert deltas["adder"].sum() == pytest.approx(0.0)
        # a1 contributes [+.5 at 1] style change; a2 row moves toward 2.
        assert deltas["adder"][2] > 0

    def test_cross_type_neighbor_delta(self):
        library = default_library()
        graph = DataFlowGraph(name="c")
        graph.add("a1", OpKind.ADD)
        graph.add("m1", OpKind.MUL)
        graph.add_edge("a1", "m1")
        state = BlockState(Block(name="c", graph=graph, deadline=4), library)
        deltas = state.placement_deltas("a1", 1)
        assert "multiplier" in deltas


class TestPlacementForce:
    def test_balanced_block_has_symmetric_forces(self):
        state = BlockState(two_add_block(2), default_library())
        f0 = placement_force(state, "a1", 0, lookahead=0.0)
        f1 = placement_force(state, "a1", 1, lookahead=0.0)
        assert f0 == pytest.approx(f1)

    def test_moving_to_empty_step_preferred(self):
        state = BlockState(two_add_block(2), default_library())
        state.commit_fix("a2", 0)
        f0 = placement_force(state, "a1", 0, lookahead=0.0)
        f1 = placement_force(state, "a1", 1, lookahead=0.0)
        assert f1 < f0  # step 1 is empty, step 0 holds a2

    def test_weights_scale_force(self):
        library = default_library()
        graph = DataFlowGraph(name="m")
        graph.add("m1", OpKind.MUL)
        graph.add("m2", OpKind.MUL)
        state = BlockState(Block(name="m", graph=graph, deadline=3), library)
        state.commit_fix("m2", 0)
        unweighted = placement_force(state, "m1", 0, lookahead=0.0)
        weighted = placement_force(
            state, "m1", 0, lookahead=0.0, weights={"multiplier": 4.0}
        )
        assert weighted == pytest.approx(4.0 * unweighted)


#: Hashes every ``placement_force`` over the initial frames of the paper
#: system and ``corpus_system(30, seed=3)``; hundreds of those placements
#: displace three or more resource types.
_FORCE_DIGEST = """
import hashlib
from repro.scheduling.forces import placement_force
from repro.scheduling.state import BlockState
from repro.workloads import corpus_system, paper_system

corpus = corpus_system(30, seed=3)
digest = hashlib.sha256()
for system, library in (paper_system(), (corpus.system, corpus.library)):
    for _process, block in system.iter_blocks():
        state = BlockState(block, library)
        for op_id in state.frames.unfixed():
            lo, hi = state.frames.frame(op_id)
            for start in range(lo, hi + 1):
                digest.update(placement_force(state, op_id, start).hex().encode())
print(digest.hexdigest())
"""


#: Hashes every audited candidate force of a coupled run on the paper
#: system.  Each commit folds its changed rows into the type sums, so
#: the forces carry the sums' last bits.
_AUDIT_DIGEST = """
import hashlib
from repro.core.scheduler import ModuloSystemScheduler
from repro.obs import AuditTrail
from repro.scheduling.forces import area_weights
from repro.workloads import paper_assignment, paper_periods, paper_system

system, library = paper_system()
audit = AuditTrail()
ModuloSystemScheduler(library, weights=area_weights(library), audit=audit).schedule(
    system, paper_assignment(library), paper_periods()
)
digest = hashlib.sha256()
for decision in audit.decisions:
    for candidate in decision.candidates:
        digest.update(candidate.force_low.hex().encode())
        digest.update(candidate.force_high.hex().encode())
print(digest.hexdigest())
"""


def _digests_under_hash_seeds(script):
    """The set of ``script``'s stdouts under ``PYTHONHASHSEED`` 0 and 1."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        digests.add(result.stdout.strip())
    return digests


def test_placement_force_bits_do_not_depend_on_hash_seed():
    """Per-type forces sum in first-occurrence order, never in set order,
    so the force bits are the same under every ``PYTHONHASHSEED``."""
    assert len(_digests_under_hash_seeds(_FORCE_DIGEST)) == 1


def test_audited_force_bits_do_not_depend_on_hash_seed():
    """A commit folds its changed rows into the type sums in a fixed op
    order, so every audited force of a coupled run has the same bits
    under every ``PYTHONHASHSEED``."""
    assert len(_digests_under_hash_seeds(_AUDIT_DIGEST)) == 1
