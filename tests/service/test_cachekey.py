"""Canonical cache-key hashing (satellite of docs/service.md).

The service's exactly-once and cache-hit guarantees are only as strong
as the key: semantically identical submissions must collide, any
result-affecting change must not.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.api import Problem, dumps_problem, loads_problem
from repro.errors import ReproError, SpecificationError
from repro.service import JobSpec, cache_key, canonical_problem_text
from repro.workloads.corpus import corpus_system

from .conftest import SMALL_TEXT


def _comment_noise(text: str, seed: int) -> str:
    """Insert comments, blank lines, and trailing spaces — semantics kept."""
    rng = random.Random(seed)
    lines = []
    for line in text.splitlines():
        if rng.random() < 0.4:
            lines.append(f"# noise {rng.randrange(1000)}")
        if rng.random() < 0.3:
            lines.append("")
        lines.append(line + (" " * rng.randrange(3)))
        if rng.random() < 0.2:
            lines.append(f"   # indented comment {rng.randrange(1000)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Insensitive to spelling
# ----------------------------------------------------------------------
def test_whitespace_and_comments_hash_identically():
    base = cache_key("schedule", SMALL_TEXT)
    for seed in range(5):
        assert cache_key("schedule", _comment_noise(SMALL_TEXT, seed)) == base


def test_canonical_text_is_a_fixed_point():
    canonical = canonical_problem_text(SMALL_TEXT)
    assert canonical_problem_text(canonical) == canonical


def test_option_dict_order_is_irrelevant():
    a = cache_key("sweep", SMALL_TEXT, {"limit": 10, "prune": False})
    b = cache_key("sweep", SMALL_TEXT, {"prune": False, "limit": 10})
    assert a == b


def test_empty_and_absent_options_collide():
    assert cache_key("schedule", SMALL_TEXT) == cache_key(
        "schedule", SMALL_TEXT, {}
    )


# ----------------------------------------------------------------------
# Sensitive to meaning
# ----------------------------------------------------------------------
def test_kind_changes_the_key():
    assert cache_key("schedule", SMALL_TEXT) != cache_key(
        "certify", SMALL_TEXT
    )


def test_period_change_changes_the_key():
    changed = SMALL_TEXT.replace("period multiplier 4", "period multiplier 2")
    assert cache_key("schedule", changed) != cache_key(
        "schedule", SMALL_TEXT
    )


def test_deadline_change_changes_the_key():
    changed = SMALL_TEXT.replace("deadline=8", "deadline=9", 1)
    assert cache_key("schedule", changed) != cache_key(
        "schedule", SMALL_TEXT
    )


def test_extra_edge_changes_the_key():
    changed = SMALL_TEXT + "edge p2 main m1 a1\n"
    assert cache_key("schedule", changed) != cache_key(
        "schedule", SMALL_TEXT
    )


def test_library_change_changes_the_key():
    # An explicit library whose adder costs double the default's.
    changed = SMALL_TEXT + (
        "resource adder kinds=add latency=1 area=2\n"
        "resource multiplier kinds=mul latency=2 area=4 pipelined ii=1\n"
    )
    assert cache_key("schedule", changed) != cache_key(
        "schedule", SMALL_TEXT
    )


def test_option_value_changes_the_key():
    assert cache_key("sweep", SMALL_TEXT, {"limit": 10}) != cache_key(
        "sweep", SMALL_TEXT, {"limit": 11}
    )


def test_fault_directive_is_excluded_from_the_key():
    spec_a, key_a = JobSpec.create("schedule", SMALL_TEXT)
    spec_b, key_b = JobSpec.create("schedule", SMALL_TEXT, fault="raise:boom")
    assert key_a == key_b
    assert spec_b.fault == "raise:boom"


# ----------------------------------------------------------------------
# Property sweep over the corpus generator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("processes,seed", [(2, 0), (3, 1), (4, 7)])
def test_corpus_problems_key_stably(processes, seed):
    instance = corpus_system(processes, seed=seed)
    text = dumps_problem(
        Problem(
            system=instance.system,
            library=instance.library,
            assignment=instance.assignment,
            periods=instance.periods,
        )
    )
    base = cache_key("sweep", text, {"limit": 20})
    # Re-spelling the same problem never moves the key...
    for noise_seed in range(3):
        noisy = _comment_noise(text, noise_seed)
        assert loads_problem(noisy).system.name == instance.system.name
        assert cache_key("sweep", noisy, {"limit": 20}) == base
    # ...but touching any period does.
    period_lines = [
        line for line in text.splitlines() if line.startswith("period ")
    ]
    if period_lines:
        name, value = period_lines[0].split()[1:3]
        changed = text.replace(
            f"period {name} {value}", f"period {name} {int(value) * 2}", 1
        )
        assert cache_key("sweep", changed, {"limit": 20}) != base


# ----------------------------------------------------------------------
# Rejections
# ----------------------------------------------------------------------
def test_unparseable_problem_has_no_key():
    with pytest.raises(ReproError):
        cache_key("schedule", "system broken\nop nowhere")


def test_unserializable_options_rejected():
    with pytest.raises(SpecificationError):
        cache_key("schedule", SMALL_TEXT, {"bad": object()})


def test_unknown_option_rejected_at_spec_creation():
    with pytest.raises(SpecificationError) as excinfo:
        JobSpec.create("schedule", SMALL_TEXT, {"tpyo": 1})
    assert excinfo.value.code == "SPEC"


@pytest.mark.parametrize("kind", ["schedule", "sweep", "certify"])
def test_scheduler_selection_knob_is_not_an_option(kind):
    # Selection has one path; a knob that never changed a payload must
    # not mint a second key for the same computation.
    with pytest.raises(SpecificationError) as excinfo:
        JobSpec.create(kind, SMALL_TEXT, {"use_scoreboard": True})
    assert excinfo.value.code == "SPEC"


def test_default_paper_schedule_key_is_stable():
    # Captured before the selection knob was dropped: the key of a
    # default submission did not move, so CACHE_KEY_FORMAT stays put.
    path = Path(__file__).resolve().parents[2] / "examples" / "paper_system.sys"
    _spec, key = JobSpec.create("schedule", path.read_text(encoding="utf-8"))
    assert key == (
        "dae1143a8ece069f5d1c4efa2598c8d3004e45561f9f385ea5cbb42fb87f4b45"
    )


def test_unknown_kind_rejected():
    from repro.service import ServiceError

    with pytest.raises(ServiceError):
        JobSpec.create("meditate", SMALL_TEXT)


# ----------------------------------------------------------------------
# Default-valued options
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind,options",
    [
        ("schedule", {"local": False}),
        ("sweep", {"prune": True}),
        ("sweep", {"harmonic": True}),
        ("sweep", {"limit": 10000}),
        ("sweep", {"limit": 10000.0}),
        ("sweep", {"candidate_delay": 0}),
        ("sweep", {"candidate_delay": 0.0}),
        ("sweep", {"prune": True, "harmonic": True, "limit": 10000}),
        ("certify", {"offset_model": "deployed"}),
    ],
)
def test_explicit_default_spelling_collides_with_no_options(kind, options):
    spec, key = JobSpec.create(kind, SMALL_TEXT, options)
    assert key == cache_key(kind, SMALL_TEXT, options)
    assert key == cache_key(kind, SMALL_TEXT, {})
    assert spec.options == {}


@pytest.mark.parametrize(
    "kind,options",
    [
        ("schedule", {"local": True}),
        ("schedule", {"max_iterations": 5}),
        ("sweep", {"prune": False}),
        ("sweep", {"harmonic": False}),
        ("sweep", {"limit": 6}),
        ("sweep", {"max_grid": 4}),
        ("sweep", {"candidate_delay": 0.4}),
        ("certify", {"offset_model": "any"}),
    ],
)
def test_non_default_option_values_keep_their_own_key(kind, options):
    spec, key = JobSpec.create(kind, SMALL_TEXT, options)
    assert key == cache_key(kind, SMALL_TEXT, options)
    assert key != cache_key(kind, SMALL_TEXT, {})
    assert spec.options == options


def test_integral_float_spells_an_int_option():
    spec, key = JobSpec.create("sweep", SMALL_TEXT, {"limit": 6.0})
    assert key == cache_key("sweep", SMALL_TEXT, {"limit": 6})
    assert spec.options == {"limit": 6}
    assert isinstance(spec.options["limit"], int)
    _spec, delay_key = JobSpec.create("sweep", SMALL_TEXT, {"candidate_delay": 1})
    assert delay_key == cache_key("sweep", SMALL_TEXT, {"candidate_delay": 1.0})


@pytest.mark.parametrize(
    "options", [{"limit": 6.5}, {"limit": True}, {"max_iterations": "5"}]
)
def test_non_integral_int_option_rejected(options):
    kind = "schedule" if "max_iterations" in options else "sweep"
    with pytest.raises(SpecificationError) as excinfo:
        JobSpec.create(kind, SMALL_TEXT, options)
    assert excinfo.value.code == "SPEC"
