"""Tests for constellation reconstruction and the cumulant detector."""

import numpy as np
import pytest

from repro.defense.constellation import (
    ConstellationOptions,
    ideal_qpsk_points,
    reconstruct_constellation,
)
from repro.defense.detector import (
    CumulantDetector,
    Hypothesis,
    calibrate_threshold,
)
from repro.errors import ConfigurationError, DetectionError


def _clean_chips(n=512, seed=0):
    rng = np.random.default_rng(seed)
    return 2.0 * rng.integers(0, 2, n) - 1.0


class TestReconstruction:
    def test_clean_chips_land_on_axes(self):
        points = reconstruct_constellation(_clean_chips())
        ideal = ideal_qpsk_points()
        for point in points:
            assert np.min(np.abs(point - ideal)) < 1e-9

    def test_normalized_to_unit_power(self):
        chips = 3.7 * _clean_chips()
        points = reconstruct_constellation(chips)
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0)

    def test_rotation_disabled(self):
        options = ConstellationOptions(rotate_to_axes=False)
        points = reconstruct_constellation(_clean_chips(), options)
        # Unrotated points sit on the diagonals.
        assert np.allclose(np.abs(points.real), np.abs(points.imag), atol=1e-9)

    def test_drop_header_chips(self):
        chips = np.concatenate([np.zeros(64), _clean_chips(64)])
        options = ConstellationOptions(drop_header_chips=64)
        points = reconstruct_constellation(chips, options)
        assert points.size == 32

    def test_odd_tail_chip_dropped(self):
        points = reconstruct_constellation(_clean_chips(33))
        assert points.size == 16

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            reconstruct_constellation(np.zeros(1))


class TestDetector:
    def test_clean_qpsk_accepted(self):
        result = CumulantDetector().statistic(_clean_chips(2048))
        assert result.hypothesis is Hypothesis.ZIGBEE_TRANSMITTER
        assert result.distance_squared < 0.01
        assert not result.is_attack

    def test_uniform_noise_far_from_qpsk(self):
        rng = np.random.default_rng(0)
        chips = rng.uniform(-1, 1, 2048)
        result = CumulantDetector().statistic(chips)
        # Uniform chips land near (C40, C42) = (0.5, -0.6): two orders of
        # magnitude above the authentic statistic, flagged by any threshold
        # calibrated per Sec. VII-B.
        assert result.distance_squared > 0.1
        clean = CumulantDetector().statistic(_clean_chips(2048))
        assert result.distance_squared > 30 * clean.distance_squared

    def test_gaussian_chips_rejected(self):
        rng = np.random.default_rng(1)
        result = CumulantDetector().statistic(rng.standard_normal(4096))
        # Gaussian gives C40 ~ 0, C42 ~ 0 -> DE2 ~ 2.
        assert result.distance_squared > 1.0

    def test_abs_c40_variant_immune_to_rotation(self):
        chips = _clean_chips(4096)
        points = reconstruct_constellation(chips)
        rotated = points * np.exp(1j * 0.35)
        plain = CumulantDetector().statistic_from_points(rotated)
        robust = CumulantDetector(use_abs_c40=True).statistic_from_points(rotated)
        assert plain.distance_squared > 0.1  # rotation breaks Re(C40)
        assert robust.distance_squared < 0.01

    def test_noise_variance_correction(self):
        rng = np.random.default_rng(2)
        chips = _clean_chips(8192, seed=3) + 0.45 * rng.standard_normal(8192)
        uncorrected = CumulantDetector().statistic(chips)
        corrected = CumulantDetector().statistic(
            chips, chip_noise_variance=0.45**2
        )
        assert corrected.distance_squared < uncorrected.distance_squared

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            CumulantDetector(threshold=0.0)

    def test_feature_vector_shape(self):
        result = CumulantDetector().statistic(_clean_chips(256))
        assert result.feature.shape == (2,)


class TestFailClosed:
    """Degenerate rows get the attacker verdict; their neighbours do not move."""

    def _batch(self):
        rng = np.random.default_rng(4)
        good = [
            _clean_chips(512, seed=5) + 0.2 * rng.standard_normal(512),
            rng.uniform(-1, 1, 512),
            _clean_chips(256, seed=6),
        ]
        nan_row = _clean_chips(512, seed=7)
        nan_row[17] = np.nan
        inf_row = _clean_chips(512, seed=8)
        inf_row[3] = np.inf
        zero_row = np.zeros(512)
        rows = [good[0], nan_row, good[1], inf_row, zero_row, good[2]]
        return rows, {0: good[0], 2: good[1], 5: good[2]}, (1, 3, 4)

    @pytest.mark.parametrize("noise_corrected", [False, True])
    def test_degenerate_rows_in_a_batch(self, noise_corrected):
        rows, good, degenerate = self._batch()
        variances = [0.01 if noise_corrected else None] * len(rows)
        detector = CumulantDetector()
        results = detector.statistic_batch(rows, variances)
        assert len(results) == len(rows)
        for index in degenerate:
            assert results[index].hypothesis is Hypothesis.WIFI_ATTACKER
            assert not np.isfinite(results[index].distance_squared)
        for index, chips in good.items():
            alone = detector.statistic(chips, variances[index])
            assert results[index].hypothesis == alone.hypothesis
            assert results[index].distance_squared == alone.distance_squared
            assert np.array_equal(results[index].feature, alone.feature)

    def test_all_zero_row_alone_is_an_attack(self):
        result = CumulantDetector().statistic(np.zeros(128))
        assert result.is_attack
        assert np.isnan(result.distance_squared)

    def test_nan_statistic_classifies_as_attacker(self):
        points = reconstruct_constellation(_clean_chips(512))
        points[0] = np.nan
        result = CumulantDetector().statistic_from_points(points)
        assert np.isnan(result.distance_squared)
        assert result.hypothesis is Hypothesis.WIFI_ATTACKER


class TestThresholdCalibration:
    def test_threshold_between_populations(self):
        threshold = calibrate_threshold([0.01, 0.02, 0.05], [1.2, 1.5, 2.0])
        assert 0.05 < threshold < 1.2

    def test_geometric_midpoint(self):
        threshold = calibrate_threshold([0.01], [1.0])
        assert threshold == pytest.approx(0.1)

    def test_overlap_raises(self):
        with pytest.raises(DetectionError):
            calibrate_threshold([0.5, 1.0], [0.8, 2.0])

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            calibrate_threshold([], [1.0])
