"""Mutation fuzzing for the ``.sys`` front end and the schedulers.

:func:`mutate_text` derives a corrupted document from a valid one via
classic text mutations (token deletion / swap / duplication, numeric
perturbation, line shuffling, truncation).  :func:`exercise_text` then
drives the full pipeline — parse, build, schedule under a tight
:class:`~repro.validation.budget.RunBudget`, verify — and classifies the
outcome.  The robustness invariant (docs/robustness.md) is:

    every input is either **rejected** with a :class:`ReproError`
    subclass, or **scheduled and verified** — never a bare
    ``KeyError``/``IndexError``/segfault-style escape, and never a hang.

``tests/fuzz`` asserts the invariant over a bounded corpus with a fixed
seed; ``benchmarks/fuzz_runner.py`` runs larger campaigns with a
per-input watchdog and saves crashing inputs for triage.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import ReproError
from .budget import RunBudget

#: Outcome labels of :func:`exercise_text` / :func:`differential_text`.
OUTCOME_SCHEDULED = "scheduled"  # parsed, scheduled, verified
OUTCOME_REJECTED = "rejected"  # a ReproError subclass, as designed
OUTCOME_CRASHED = "crashed"  # non-ReproError escape: a genuine bug
OUTCOME_DIVERGED = "diverged"  # static certifier vs simulation disagree

_NUMBER = re.compile(r"\d+")


@dataclass(frozen=True)
class FuzzOutcome:
    """Classification of one fuzzed input."""

    outcome: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True unless the input exposed a robustness bug."""
        return self.outcome not in (OUTCOME_CRASHED, OUTCOME_DIVERGED)


# ----------------------------------------------------------------------
# Mutations
# ----------------------------------------------------------------------
def _delete_token(lines: List[str], rng: random.Random) -> None:
    idx = rng.randrange(len(lines))
    tokens = lines[idx].split()
    if tokens:
        tokens.pop(rng.randrange(len(tokens)))
        lines[idx] = " ".join(tokens)


def _duplicate_token(lines: List[str], rng: random.Random) -> None:
    idx = rng.randrange(len(lines))
    tokens = lines[idx].split()
    if tokens:
        pos = rng.randrange(len(tokens))
        tokens.insert(pos, tokens[pos])
        lines[idx] = " ".join(tokens)


def _swap_tokens(lines: List[str], rng: random.Random) -> None:
    idx = rng.randrange(len(lines))
    tokens = lines[idx].split()
    if len(tokens) >= 2:
        a, b = rng.sample(range(len(tokens)), 2)
        tokens[a], tokens[b] = tokens[b], tokens[a]
        lines[idx] = " ".join(tokens)


def _perturb_number(lines: List[str], rng: random.Random) -> None:
    candidates = [i for i, line in enumerate(lines) if _NUMBER.search(line)]
    if not candidates:
        return
    idx = rng.choice(candidates)
    matches = list(_NUMBER.finditer(lines[idx]))
    match = rng.choice(matches)
    value = int(match.group())
    new = rng.choice(
        [0, -1, value + 1, max(0, value - 1), value * 1000, 10**9, 10**15]
    )
    lines[idx] = lines[idx][: match.start()] + str(new) + lines[idx][match.end():]


def _delete_line(lines: List[str], rng: random.Random) -> None:
    lines.pop(rng.randrange(len(lines)))


def _duplicate_line(lines: List[str], rng: random.Random) -> None:
    idx = rng.randrange(len(lines))
    lines.insert(idx, lines[idx])


def _swap_lines(lines: List[str], rng: random.Random) -> None:
    if len(lines) >= 2:
        a, b = rng.sample(range(len(lines)), 2)
        lines[a], lines[b] = lines[b], lines[a]


def _truncate(lines: List[str], rng: random.Random) -> None:
    keep = rng.randrange(len(lines))
    del lines[keep:]


_MUTATIONS: List[Callable[[List[str], random.Random], None]] = [
    _delete_token,
    _duplicate_token,
    _swap_tokens,
    _perturb_number,
    _delete_line,
    _duplicate_line,
    _swap_lines,
    _truncate,
]


def mutate_text(text: str, rng: random.Random, *, rounds: Optional[int] = None) -> str:
    """Apply 1-3 random mutations (or exactly ``rounds``) to ``text``."""
    lines = text.splitlines()
    if not lines:
        return text
    count = rng.randint(1, 3) if rounds is None else rounds
    for _ in range(count):
        if not lines:
            break
        rng.choice(_MUTATIONS)(lines, rng)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The invariant driver
# ----------------------------------------------------------------------
def exercise_text(
    text: str,
    *,
    budget: Optional[RunBudget] = None,
) -> FuzzOutcome:
    """Run one input through parse → build → schedule → verify.

    Never raises: every escape path is folded into the returned
    :class:`FuzzOutcome`.  Hang protection is the caller's job (the
    schedulers honour ``budget``; the fuzz runner adds a ``SIGALRM``
    watchdog above it for everything else).
    """
    from ..api import problem_from_document
    from ..core.verify import verify
    from ..ir import systemio

    if budget is None:
        budget = RunBudget(max_iterations=20_000, wall_deadline=10.0)
    try:
        document = systemio.loads(text)
        problem = problem_from_document(document)
        result = problem.schedule(budget=budget)
        verify(result)
    except ReproError as exc:
        return FuzzOutcome(
            OUTCOME_REJECTED, f"{type(exc).__name__} [{exc.code}]: {exc}"
        )
    except Exception as exc:  # noqa: BLE001 - the invariant under test
        return FuzzOutcome(OUTCOME_CRASHED, f"{type(exc).__name__}: {exc}")
    return FuzzOutcome(OUTCOME_SCHEDULED, f"area {result.total_area():g}")


def differential_text(
    text: str,
    *,
    budget: Optional[RunBudget] = None,
    seeds: int = 10,
    cycles: int = 400,
    trigger: float = 0.25,
) -> FuzzOutcome:
    """Differential oracle: certifier verdict vs multi-seed simulation.

    Runs the pipeline like :func:`exercise_text`; when the input
    schedules, the result is statically certified (deployed offsets,
    derived pools) and dynamically simulated ``seeds`` times.  The two
    oracles must agree — a schedule the certifier proves safe must
    survive every randomized simulation, and on self-derived pools the
    certifier must never refute.  Disagreement is the ``diverged``
    outcome (``ok`` is False): one of the two sides is wrong.
    """
    from ..analysis.static.certifier import certify
    from ..api import problem_from_document
    from ..ir import systemio
    from ..sim.simulator import SystemSimulator

    if budget is None:
        budget = RunBudget(max_iterations=20_000, wall_deadline=10.0)
    try:
        document = systemio.loads(text)
        problem = problem_from_document(document)
        result = problem.schedule(budget=budget)
        certificate = certify(result)
        simulator = SystemSimulator(result, trigger_probability=trigger)
        failing = [
            seed
            for seed in range(seeds)
            if not simulator.run(cycles, seed=seed).ok
        ]
    except ReproError as exc:
        return FuzzOutcome(
            OUTCOME_REJECTED, f"{type(exc).__name__} [{exc.code}]: {exc}"
        )
    except Exception as exc:  # noqa: BLE001 - the invariant under test
        return FuzzOutcome(OUTCOME_CRASHED, f"{type(exc).__name__}: {exc}")
    if not certificate.safe:
        return FuzzOutcome(
            OUTCOME_DIVERGED,
            "certifier refutes the schedule's own derived pools: "
            + (
                certificate.counterexample.triple()
                if certificate.counterexample
                else certificate.verdict
            ),
        )
    if failing:
        return FuzzOutcome(
            OUTCOME_DIVERGED,
            f"certificate is safe but simulation seeds {failing} hit "
            "conflicts",
        )
    return FuzzOutcome(
        OUTCOME_SCHEDULED,
        f"safe and {seeds} seed(s) conflict-free",
    )
