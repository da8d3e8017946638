"""Tests for the defense extensions: ROC, sequential test, 6th-order."""

import numpy as np
import pytest

from repro.defense.features import (
    QPSK_C63,
    estimate_sixth_order,
    extended_feature,
    theoretical_sixth_order,
)
from repro.defense.roc import roc_curve
from repro.defense.sequential import (
    SequentialDecision,
    SequentialDetector,
    SequentialState,
)
from repro.errors import ConfigurationError


class TestRoc:
    def test_separated_populations_give_auc_one(self):
        curve = roc_curve([0.01, 0.02, 0.03], [1.0, 1.5, 2.0])
        assert curve.auc == pytest.approx(1.0, abs=1e-6)
        assert curve.equal_error_rate() == pytest.approx(0.0, abs=1e-6)

    def test_identical_populations_give_auc_half(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, 500)
        curve = roc_curve(scores, scores)
        assert curve.auc == pytest.approx(0.5, abs=0.05)

    def test_rates_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        curve = roc_curve(rng.normal(0, 1, 200), rng.normal(2, 1, 200))
        assert np.all(np.diff(curve.true_positive_rates) >= -1e-12)
        assert np.all(np.diff(curve.false_positive_rates) >= -1e-12)

    def test_threshold_for_fpr(self):
        curve = roc_curve([0.1, 0.2], [1.0, 2.0])
        threshold = curve.threshold_for_fpr(0.0)
        assert threshold > 0.2

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            roc_curve([], [1.0])

    def test_nan_scores_are_dropped_not_poisoning(self):
        # Regression: one NaN (e.g. mean_or_nan over an all-failed
        # point) used to make every threshold NaN, silently collapsing
        # TPR/FPR to 0 across the whole curve.
        clean = roc_curve([0.01, 0.02, 0.03], [1.0, 1.5, 2.0])
        dirty = roc_curve(
            [0.01, 0.02, 0.03, float("nan")],
            [1.0, float("nan"), 1.5, 2.0],
        )
        assert dirty.dropped_authentic == 1
        assert dirty.dropped_attack == 1
        assert not np.isnan(dirty.thresholds).any()
        assert np.array_equal(dirty.true_positive_rates,
                              clean.true_positive_rates)
        assert np.array_equal(dirty.false_positive_rates,
                              clean.false_positive_rates)
        assert dirty.auc == pytest.approx(clean.auc)

    def test_clean_curve_reports_zero_dropped(self):
        curve = roc_curve([0.1, 0.2], [1.0, 2.0])
        assert curve.dropped_authentic == 0
        assert curve.dropped_attack == 0

    def test_all_nan_population_raises(self):
        with pytest.raises(ConfigurationError):
            roc_curve([float("nan"), float("nan")], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            roc_curve([0.1, 0.2], [float("nan")])

    def test_equal_error_rate_interpolates_the_crossing(self):
        # Regression: the EER used to snap to the nearest grid point.
        # With h0 = [1, 2, 3], h1 = [2.5, 3.5, 4.5, 5.5] on a 4-point
        # grid, the FNR-FPR difference runs [1, 1/2, -1/3, -1]; the
        # sign change sits t = (1/2)/(1/2 + 1/3) = 3/5 of the way from
        # FPR 0 to FPR 1/3, so the interpolated EER is exactly 1/5 —
        # the old nearest-point answer was 1/6.
        curve = roc_curve([1.0, 2.0, 3.0], [2.5, 3.5, 4.5, 5.5],
                          num_points=4)
        assert curve.equal_error_rate() == pytest.approx(0.2, abs=1e-12)

    def test_equal_error_rate_exact_grid_crossing(self):
        # A symmetric overlap puts FNR == FPR exactly on a grid point;
        # the interpolation must return it unchanged.
        curve = roc_curve([1.0, 3.0], [2.0, 4.0], num_points=5)
        fnr = 1.0 - curve.true_positive_rates
        diff = fnr - curve.false_positive_rates
        assert (diff == 0.0).any()
        index = int(np.flatnonzero(diff == 0.0)[0])
        assert curve.equal_error_rate() == pytest.approx(
            float(curve.false_positive_rates[index])
        )

    def test_defense_scores_give_perfect_auc(self, authentic_link, emulated_link):
        """End-to-end: the cumulant statistic yields AUC = 1 at 17 dB."""
        from repro.channel.awgn import AwgnChannel
        from repro.defense.detector import CumulantDetector
        from repro.experiments.defense_common import defense_receiver

        receiver = defense_receiver()
        detector = CumulantDetector()
        h0, h1 = [], []
        for i in range(5):
            for target, prepared in ((h0, authentic_link), (h1, emulated_link)):
                noisy = AwgnChannel(17, rng=10 * i + len(target)).apply(
                    prepared.on_air
                )
                packet = receiver.receive(noisy)
                target.append(
                    detector.statistic(
                        packet.diagnostics.psdu_quadrature_soft_chips
                    ).distance_squared
                )
        assert roc_curve(h0, h1).auc == pytest.approx(1.0, abs=1e-9)


class TestSequentialDetector:
    def _detector(self):
        return SequentialDetector(
            h0_log_mean=np.log(0.005), h1_log_mean=np.log(0.2), log_std=0.8
        )

    def test_attack_stream_fires_h1(self):
        detector = self._detector()
        decision, used = detector.run([0.2, 0.25, 0.18, 0.22, 0.2, 0.21])
        assert decision is SequentialDecision.ATTACK
        assert used <= 6

    def test_authentic_stream_fires_h0(self):
        detector = self._detector()
        decision, used = detector.run([0.005, 0.004, 0.006, 0.005, 0.005, 0.005])
        assert decision is SequentialDecision.AUTHENTIC

    def test_ambiguous_stream_continues(self):
        detector = self._detector()
        boundary = float(np.exp((np.log(0.005) + np.log(0.2)) / 2))
        decision, _ = detector.run([boundary])
        assert decision is SequentialDecision.CONTINUE

    def test_aggregation_beats_single_shot(self):
        """Scores individually ambiguous resolve after several packets."""
        detector = self._detector()
        slightly_high = float(np.exp(np.log(0.2) - 0.7))
        decision, used = detector.run([slightly_high] * 20)
        assert decision is SequentialDecision.ATTACK
        assert used > 1

    def test_calibrate_from_training_data(self):
        rng = np.random.default_rng(0)
        h0 = np.exp(rng.normal(np.log(0.005), 0.5, 50))
        h1 = np.exp(rng.normal(np.log(0.2), 0.5, 50))
        detector = SequentialDetector.calibrate(list(h0), list(h1))
        decision, _ = detector.run(list(np.exp(
            rng.normal(np.log(0.2), 0.5, 30))))
        assert decision is SequentialDecision.ATTACK

    def test_rejects_inverted_means(self):
        with pytest.raises(ConfigurationError):
            SequentialDetector(h0_log_mean=0.0, h1_log_mean=-1.0)

    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_fails_closed(self, score):
        detector = self._detector()
        state = SequentialState()
        assert detector.update(state, 0.01) is SequentialDecision.CONTINUE
        before = state.log_likelihood_ratio
        assert detector.update(state, score) is SequentialDecision.ATTACK
        assert state.log_likelihood_ratio == before
        assert state.packets_observed == 2
        # The running sum stays usable: authentic evidence still resolves.
        decision, _ = detector.run([score])
        assert decision is SequentialDecision.ATTACK
        for _ in range(10):
            decision = detector.update(state, 0.005)
            if decision is not SequentialDecision.CONTINUE:
                break
        assert decision is SequentialDecision.AUTHENTIC

    def test_state_tracks_history(self):
        detector = self._detector()
        state = SequentialState()
        detector.update(state, 0.1)
        detector.update(state, 0.2)
        assert state.packets_observed == 2
        assert state.history == [0.1, 0.2]


class TestSixthOrder:
    def test_qpsk_theoretical_values(self):
        c60, c63 = theoretical_sixth_order("QPSK")
        assert abs(c60) < 1e-9
        assert c63 == pytest.approx(QPSK_C63)

    def test_known_swami_sadler_values(self):
        # Published C63 values: BPSK 13, 16QAM 2.08, 64QAM ~1.7972.
        assert theoretical_sixth_order("BPSK")[1] == pytest.approx(13.0)
        assert theoretical_sixth_order("16QAM")[1] == pytest.approx(2.08)
        assert theoretical_sixth_order("64QAM")[1] == pytest.approx(1.7972, abs=1e-3)

    def test_sample_estimate_converges(self):
        from repro.defense.amc import synthesize_symbols

        symbols = synthesize_symbols("QPSK", 50000, rng=0)
        estimate = estimate_sixth_order(symbols)
        assert estimate.c63_hat == pytest.approx(QPSK_C63, abs=0.05)

    def test_extended_feature_separates_classes(
        self, authentic_link, emulated_link
    ):
        from repro.defense.constellation import reconstruct_constellation
        from repro.experiments.defense_common import defense_receiver

        receiver = defense_receiver()
        distances = {}
        for label, prepared in (("auth", authentic_link), ("emu", emulated_link)):
            packet = receiver.receive(prepared.on_air)
            points = reconstruct_constellation(
                packet.diagnostics.psdu_quadrature_soft_chips
            )
            distances[label] = extended_feature(points).distance_squared()
        assert distances["emu"] > 5 * distances["auth"]

    def test_rejects_tiny_sample(self):
        with pytest.raises(ConfigurationError):
            estimate_sixth_order(np.ones(4, dtype=complex))
