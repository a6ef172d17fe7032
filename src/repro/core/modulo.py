"""Modulo mapping and the modulo-maximum transformation (eqs. 1, 7, 8).

A global resource type with period ``P`` folds the absolute time axis onto
period slots ``tau = t mod P`` (eq. 1).  An access authorization granted to
a process for slot ``tau`` is valid at *every* absolute step mapping to
``tau`` — this is what makes sharing safe for processes with unknown
relative start times.

The **modulo-maximum transformation** (eq. 7) folds a distribution function
``D`` over a block's time range onto the period:

    Q(tau) = max{ D(t) : t ≡ tau (mod P) }

Because the slot-capacity a process needs is the *maximum* usage over the
steps mapping to a slot (at any absolute time only one of them is live),
displacements of ``D`` that stay below the slot maximum are "hidden": they
change ``Q`` not at all and therefore cost no force — which is precisely
how the modified scheduler aligns operations periodically (§5.1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import PeriodError
from ..obs.counters import MODULO_MAX_TRANSFORMS, count


def fold(step: int, period: int) -> int:
    """Map an absolute time step to its period slot (eq. 1)."""
    if period < 1:
        raise PeriodError(f"period must be >= 1, got {period}")
    return step % period


def slot_steps(slot: int, period: int, horizon: int) -> list:
    """All time steps in ``[0, horizon)`` mapping to ``slot`` (figure 1)."""
    if period < 1:
        raise PeriodError(f"period must be >= 1, got {period}")
    if not 0 <= slot < period:
        raise PeriodError(f"slot {slot} outside [0, {period})")
    return list(range(slot, horizon, period))


def _fold_chunks(array: np.ndarray, period: int) -> np.ndarray:
    """Chunk-maximum fold of the last axis shared by every eq. 7 variant.

    The stride loop of :func:`modulo_max_reference` for all rows at
    once: when the period divides the horizon, one maximum reduction
    over the ``(..., chunks, period)`` view from an initial 0; otherwise
    one numpy call per period-long chunk, each (the ragged tail into the
    leading slots) maxed in place into a zeros accumulator.  Both take
    the maxima from 0 in chunk order, the reference's order, and
    maximum is exact, so the result equals it byte for byte: empty
    slots stay 0 and a negative cancellation residue (e.g. ``-1e-17``
    from a hidden displacement) clamps to 0.
    """
    if period < 1:
        raise PeriodError(f"period must be >= 1, got {period}")
    horizon = array.shape[-1]
    if horizon and not horizon % period:
        chunks = array.reshape(array.shape[:-1] + (horizon // period, period))
        return np.maximum.reduce(chunks, axis=-2, initial=0)
    folded = np.zeros(array.shape[:-1] + (period,), dtype=array.dtype)
    for offset in range(0, array.shape[-1], period):
        chunk = array[..., offset : offset + period]
        head = folded[..., : chunk.shape[-1]]
        np.maximum(head, chunk, out=head)
    return folded


def modulo_max(values: Sequence[float], period: int) -> np.ndarray:
    """Modulo-maximum transformation of a distribution (eq. 7).

    Args:
        values: Distribution over a block's time range ``0 .. len-1``.
        period: Period of the global resource type.

    Returns:
        Array of length ``period``; entry ``tau`` is the maximum of
        ``values`` over the steps congruent to ``tau``.  Slots with no
        congruent step inside the range (period longer than the range)
        are 0.
    """
    count(MODULO_MAX_TRANSFORMS)
    return _fold_chunks(np.asarray(values, dtype=float), period)


def modulo_max_reference(values: Sequence[float], period: int) -> np.ndarray:
    """Scalar-stride reference implementation of :func:`modulo_max`.

    Kept as the oracle for the kernel property tests and the per-kernel
    benchmark (``benchmarks/bench_kernels.py``); the production
    :func:`modulo_max` is the vectorized chunk-maximum form and must
    stay byte-identical to this loop.
    """
    if period < 1:
        raise PeriodError(f"period must be >= 1, got {period}")
    array = np.asarray(values, dtype=float)
    folded = np.zeros(period, dtype=float)
    for offset in range(0, array.size, period):
        chunk = array[offset : offset + period]
        np.maximum(folded[: chunk.size], chunk, out=folded[: chunk.size])
    return folded


def modulo_max_int(values: Sequence[int], period: int) -> np.ndarray:
    """Integer variant of :func:`modulo_max` (for final usage counts)."""
    return _fold_chunks(np.asarray(values, dtype=int), period)


def modulo_max_rows(matrix: np.ndarray, period: int) -> np.ndarray:
    """Row-wise modulo-maximum transformation (eq. 7, batched form).

    Folds every row of a ``(n, horizon)`` matrix onto the period with
    one maximum per period-long chunk: the batched core of the
    array-backed force kernels (:mod:`repro.scheduling.kernels`).  Each
    output row is byte-identical to ``modulo_max(matrix[i], period)`` —
    maximum is exact, so batching cannot perturb a single bit.

    Returns a ``(n, period)`` array of the same dtype kind (floats stay
    float64, ints stay int64 — no silent downcasts).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise PeriodError(f"expected a 2-d row matrix, got shape {matrix.shape}")
    count(MODULO_MAX_TRANSFORMS, matrix.shape[0])
    return _fold_chunks(matrix, period)


def modulo_delta(
    distribution: np.ndarray, delta: np.ndarray, period: int
) -> np.ndarray:
    """Change of the modulo-maximum transform under a displacement (eq. 8).

    Returns ``Q(D + delta) - Q(D)``; entries are zero wherever the
    displacement is hidden below the slot maximum.
    """
    before = modulo_max(distribution, period)
    after = modulo_max(distribution + delta, period)
    return after - before
