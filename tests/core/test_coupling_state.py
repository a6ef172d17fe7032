"""Property test: the coupling's persistent state equals a fresh coupling's.

:class:`_GlobalCoupling` keeps each block's eq. 7 modulo maximum ``Q``,
each process's eq. 9 maximum ``M`` (with its row of the type's ``M``
stack) and each type's §5.2 system sum ``S`` across commits, refreshing
only what a commit moved: a ``Q`` that keeps its bytes stops there, a
one-block process writes its ``Q`` as ``M`` without the eq. 9 rebuild,
and a multi-block one rebuilds ``M`` over its blocks.  Random commit
sequences, two of every three commits the scheduler's own choice (which
hides displacements under the modulo maximum) and the third a random
frame end, drive the paper system (one block per process) and three
multi-block sibling systems; after every commit each ``Q``, ``M``, ``M``
stack row and ``S``, and each memoized sibling maximum, must equal a
coupling freshly built over the same block states byte for byte.
"""

import numpy as np
import pytest

from repro.core.scheduler import ModuloSystemScheduler, _Entry, _GlobalCoupling
from repro.scheduling.state import BlockState

from test_counter_pins import _paper, _siblings

SUBJECTS = {
    "paper": _paper,
    "siblings0": lambda: _siblings(0),
    "siblings1": lambda: _siblings(1),
    "siblings2": lambda: _siblings(2),
}

#: Commits driven per subject.
COMMITS = 60


def assert_matches_fresh(coupling, entries, assignment, periods):
    fresh = _GlobalCoupling(entries, assignment, periods)
    assert coupling._q.keys() == fresh._q.keys()
    for key, q in fresh._q.items():
        assert coupling._q[key].tobytes() == q.tobytes(), f"Q {key}"
        # No -0.0 (nor anything negative): comparing Q by bytes is
        # comparing it by value.
        assert not np.signbit(q).any(), f"Q {key}"
    assert coupling._m.keys() == fresh._m.keys()
    for key, m in fresh._m.items():
        assert coupling._m[key].tobytes() == m.tobytes(), f"M {key}"
        rows = coupling._m_rows[key[1]]
        assert rows[coupling._m_rowidx[key]].tobytes() == m.tobytes(), f"M row {key}"
    assert coupling._s.keys() == fresh._s.keys()
    for type_name, s in fresh._s.items():
        assert coupling._s[type_name].tobytes() == s.tobytes(), f"S {type_name}"
    for (index, type_name), others in coupling._others.items():
        want = fresh.other_blocks_max(index, type_name)
        assert others.tobytes() == want.tobytes(), f"sibling max {index} {type_name}"


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_coupling_state_equals_a_fresh_coupling_after_every_commit(name):
    library, system, assignment, periods, weights = SUBJECTS[name]()
    entries = [
        _Entry(process.name, block, BlockState(block, library))
        for process, block in system.iter_blocks()
    ]
    coupling = _GlobalCoupling(entries, assignment, periods)
    kernel = ModuloSystemScheduler(library, weights=weights)._selector(
        entries, coupling
    )
    single = {
        process: len(coupling.process_entries(process)) == 1
        for process in {entry.process_name for entry in entries}
    }
    rng = np.random.default_rng(sorted(SUBJECTS).index(name))
    scopes_seen = set()
    for step in range(COMMITS):
        best = kernel.select()
        if best is None:
            break
        index, op_id, shrink_low = best[:3]
        if step % 3 == 2:
            mobile = [i for i, e in enumerate(entries) if e.state.frames.unfixed()]
            index = mobile[int(rng.integers(len(mobile)))]
            unfixed = entries[index].state.frames.unfixed()
            op_id = unfixed[int(rng.integers(len(unfixed)))]
            shrink_low = bool(rng.integers(2))
        entry = entries[index]
        lo, hi = entry.state.frames.frame(op_id)
        bounds = (lo + 1, hi) if shrink_low else (lo, hi - 1)
        old_q = dict(coupling._q)
        effect = entry.state.commit_reduce_effect(op_id, *bounds)
        scopes = coupling.refresh(index, effect.touched_types)
        kernel.note_commit(index, effect, scopes)
        for type_name, scope in scopes.items():
            moved = coupling._q[(index, type_name)] is not old_q[(index, type_name)]
            assert (scope == "clean") == (not moved), (type_name, scope)
            if single[entry.process_name] and scope != "clean":
                # A one-block process's M is its Q, so S moves with it.
                assert scope == "system"
            scopes_seen.add(scope)
        assert_matches_fresh(coupling, entries, assignment, periods)
    if name == "paper":
        # Hidden displacements occur, and every process has one block.
        assert {"clean", "system"} <= scopes_seen
        assert all(single.values())
    else:
        # A sibling's Q can move without moving the process maximum.
        assert {"process", "system"} <= scopes_seen
        assert not any(single.values())
