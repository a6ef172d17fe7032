"""Tests for repro.core.modulo (eqs. 1, 7, 8)."""

import numpy as np
import pytest

from repro.errors import PeriodError
from repro.core.modulo import (
    fold,
    modulo_delta,
    modulo_max,
    modulo_max_int,
    modulo_max_reference,
    modulo_max_rows,
    slot_steps,
)


class TestFold:
    def test_basic_mapping(self):
        assert fold(0, 3) == 0
        assert fold(7, 3) == 1
        assert fold(3, 3) == 0

    def test_invalid_period(self):
        with pytest.raises(PeriodError):
            fold(5, 0)


class TestSlotSteps:
    def test_figure1_style_authorization_steps(self):
        # Slot 1 of period 3 over 10 steps: all steps == 1 (mod 3).
        assert slot_steps(1, 3, 10) == [1, 4, 7]

    def test_slot_out_of_range(self):
        with pytest.raises(PeriodError, match="outside"):
            slot_steps(3, 3, 10)

    def test_period_longer_than_horizon(self):
        assert slot_steps(4, 8, 3) == []


class TestModuloMax:
    def test_exact_fold(self):
        values = [1.0, 0.0, 2.0, 3.0, 1.0, 0.5]
        assert modulo_max(values, 3).tolist() == [3.0, 1.0, 2.0]

    def test_period_equal_to_length_is_identity(self):
        values = [1.0, 2.0, 3.0]
        assert modulo_max(values, 3).tolist() == values

    def test_period_longer_than_values_pads_zero(self):
        assert modulo_max([1.0, 2.0], 4).tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_non_multiple_length(self):
        values = [1.0, 5.0, 2.0, 4.0, 3.0]
        # slots: 0 -> max(1,3)=3 ; 1 -> max(5)=5... period 4:
        assert modulo_max(values, 4).tolist() == [3.0, 5.0, 2.0, 4.0]

    def test_period_one_takes_global_max(self):
        assert modulo_max([0.5, 3.0, 1.0], 1).tolist() == [3.0]

    def test_invalid_period_rejected(self):
        with pytest.raises(PeriodError):
            modulo_max([1.0], 0)

    def test_dominates_pointwise(self):
        """Q(t mod P) >= D(t) for every t."""
        rng = np.random.default_rng(7)
        values = rng.random(17)
        folded = modulo_max(values, 5)
        for t, value in enumerate(values):
            assert folded[t % 5] >= value - 1e-12

    def test_integer_variant(self):
        folded = modulo_max_int([1, 0, 2, 3, 1, 0], 3)
        assert folded.dtype.kind == "i"
        assert folded.tolist() == [3, 1, 2]


def _random_rows(rng, rows, horizon):
    """Rows with zeros, negative zeros and ``-1e-17`` cancellation
    residue among positive values."""
    matrix = rng.random((rows, horizon)) * 3
    pick = rng.random((rows, horizon))
    matrix[pick < 0.2] = 0.0
    matrix[(pick >= 0.2) & (pick < 0.3)] = -0.0
    matrix[(pick >= 0.3) & (pick < 0.4)] = -1e-17
    return matrix


class TestChunkedFold:
    """Every production fold equals the scalar-stride reference byte for
    byte: horizon below the period, whole multiples of it, and ragged
    tails."""

    CASES = [(3, 5), (5, 5), (6, 3), (12, 4), (7, 3), (11, 4), (1, 1), (0, 3)]

    @pytest.mark.parametrize("horizon,period", CASES)
    def test_shapes_match_reference(self, horizon, period):
        rng = np.random.default_rng(horizon * 31 + period)
        matrix = _random_rows(rng, 4, horizon)
        self._check(matrix, period)

    def test_random_horizons_and_periods_match_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            horizon = int(rng.integers(0, 40))
            period = int(rng.integers(1, 20))
            rows = int(rng.integers(0, 5))
            self._check(_random_rows(rng, rows, horizon), period)

    def test_cancellation_residue_clamps_to_zero(self):
        values = np.array([-1e-17, 0.0, -1e-17, -1e-17, 0.0, -1e-17])
        for period in (1, 2, 3, 4, 6, 8):
            want = np.zeros(period).tobytes()
            assert modulo_max(values, period).tobytes() == want
            assert modulo_max_rows(values[None, :], period)[0].tobytes() == want
            assert modulo_max_reference(values, period).tobytes() == want

    @staticmethod
    def _check(matrix, period):
        folded = modulo_max_rows(matrix, period)
        assert folded.shape == (matrix.shape[0], period)
        for row, values in zip(folded, matrix):
            want = modulo_max_reference(values, period)
            assert row.tobytes() == want.tobytes()
            assert modulo_max(values, period).tobytes() == want.tobytes()
            counts = np.rint(values * 4).astype(int)
            assert (
                modulo_max_int(counts, period).tobytes()
                == modulo_max_reference(counts, period).astype(int).tobytes()
            )


class TestModuloDelta:
    def test_hidden_displacement_costs_nothing(self):
        """A positive displacement below the slot max does not change Q."""
        distribution = np.array([2.0, 0.0, 0.5, 0.0])
        delta = np.array([0.0, 0.0, 1.0, 0.0])  # slot 0 of period 2: max still 2
        change = modulo_delta(distribution, delta, 2)
        assert change.tolist() == [0.0, 0.0]

    def test_visible_displacement_changes_q(self):
        distribution = np.array([2.0, 0.0, 0.5, 0.0])
        delta = np.array([0.0, 0.0, 2.0, 0.0])  # slot 0 now peaks at 2.5
        change = modulo_delta(distribution, delta, 2)
        assert change.tolist() == [0.5, 0.0]

    def test_negative_displacement_only_counts_if_max_drops(self):
        distribution = np.array([2.0, 0.0, 2.0, 0.0])
        # Remove mass at step 0; step 2 still holds the slot max.
        delta = np.array([-1.0, 0.0, 0.0, 0.0])
        change = modulo_delta(distribution, delta, 2)
        assert change.tolist() == [0.0, 0.0]

    def test_delta_of_zero_is_zero(self):
        distribution = np.array([1.0, 2.0, 3.0])
        assert modulo_delta(distribution, np.zeros(3), 3).tolist() == [0, 0, 0]
