"""Tests for the shared experiment infrastructure."""

import numpy as np
import pytest

from repro.defense.detector import CumulantDetector
from repro.experiments.common import (
    LEAD_IN_SAMPLES,
    build_observed_waveform,
    default_payload,
    packet_delivered,
    prepare_authentic,
    prepare_emulated,
    transmit_batch,
)
from repro.experiments.defense_common import (
    chip_noise_variance_for,
    collect_statistics,
    defense_receiver,
    extract_chips,
    matched_filter_chip_noise_variance,
    mean_distance_squared,
)


def transmit_one(link, snr_db, seed=None):
    """One noisy transmission: a batch of one."""
    (packet,) = transmit_batch(
        link, defense_receiver(), snr_db, [np.random.default_rng(seed)]
    )
    return packet


class TestPreparedLinks:
    def test_lead_in_present(self, authentic_link):
        assert np.allclose(
            authentic_link.on_air.samples[:LEAD_IN_SAMPLES], 0.0
        )

    def test_authentic_has_no_emulation(self, authentic_link):
        assert authentic_link.emulation is None

    def test_emulated_carries_attack_internals(self, emulated_link):
        assert emulated_link.emulation is not None
        assert emulated_link.emulation.scale > 0

    def test_default_payload_stable(self):
        assert default_payload() == b"00042"

    def test_build_observed_uses_payload(self):
        sent = build_observed_waveform(b"custom")
        assert b"custom" in sent.ppdu


class TestTransmitOnce:
    def test_noiseless_delivery(self, authentic_link):
        packet = transmit_one(authentic_link, None)
        assert packet is not None
        assert packet_delivered(authentic_link, packet)

    def test_deep_noise_returns_none_or_undelivered(self, authentic_link):
        packet = transmit_one(authentic_link, -30.0, seed=0)
        assert packet is None or not packet_delivered(authentic_link, packet)

    def test_delivery_requires_exact_psdu(self, authentic_link, emulated_link):
        # A packet decoded from a different frame must not count.
        packet = transmit_one(emulated_link, None)
        assert packet_delivered(emulated_link, packet)
        assert packet_delivered(authentic_link, packet)  # same frame content


class TestDefenseCommon:
    def test_extract_chips_sources(self, authentic_link):
        packet = transmit_one(authentic_link, None)
        quadrature = extract_chips(packet, "quadrature")
        matched = extract_chips(packet, "matched_filter")
        assert quadrature.size > 0 and matched.size > 0
        with pytest.raises(ValueError):
            extract_chips(packet, "esp")

    def test_chip_noise_conversion_value(self):
        # sps=2: pulse energy 2 -> chip noise = sigma^2 / 4.
        assert matched_filter_chip_noise_variance(0.4, 2) == pytest.approx(0.1)

    def test_chip_noise_none_for_quadrature(self, authentic_link):
        packet = transmit_one(authentic_link, 10.0, seed=1)
        assert chip_noise_variance_for(packet, "quadrature") is None
        assert chip_noise_variance_for(packet, "matched_filter") is not None

    def test_collect_statistics_counts(self, authentic_link):
        samples = collect_statistics(
            authentic_link, CumulantDetector(), 15.0, count=4, rng=2
        )
        assert 1 <= len(samples) <= 4
        assert all(s.distance_squared >= 0 for s in samples)
        assert mean_distance_squared(samples) >= 0

    def test_mean_of_empty_is_nan(self):
        assert np.isnan(mean_distance_squared([]))

    def test_noise_corrected_statistics_smaller(self, authentic_link):
        plain = collect_statistics(
            authentic_link, CumulantDetector(), 8.0, count=5, rng=3,
            chip_source="matched_filter", noise_corrected=False,
        )
        corrected = collect_statistics(
            authentic_link, CumulantDetector(), 8.0, count=5, rng=3,
            chip_source="matched_filter", noise_corrected=True,
        )
        assert mean_distance_squared(corrected) < mean_distance_squared(plain)
