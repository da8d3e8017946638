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
from repro.errors import ConfigurationError
from repro.experiments.defense_common import (
    defense_receiver,
    mean_or_nan,
    statistic_trial,
)
from repro.utils.rng import spawn_rngs
from repro.zigbee.halfsine import matched_filter_chip_noise_variance


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


def distances(link, snr_db, count, seed, **overrides):
    """D_E^2 of ``count`` receptions that reached the defense."""
    options = {"chip_source": "quadrature", "noise_corrected": False}
    options.update(overrides)
    context = {
        "link": link,
        "receiver": defense_receiver(),
        "detector": CumulantDetector(),
    }
    args = ("link", options["chip_source"], options["noise_corrected"],
            snr_db, "de2")
    rows = statistic_trial(context, args, spawn_rngs(seed, count))
    return [row for row in rows if row is not None]


class TestDefenseCommon:
    def test_extract_chips_sources(self, authentic_link):
        packet = transmit_one(authentic_link, None)
        quadrature = packet.diagnostics.psdu_chips("quadrature")
        matched = packet.diagnostics.psdu_chips("matched_filter")
        assert quadrature.size > 0 and matched.size > 0
        with pytest.raises(ConfigurationError):
            packet.diagnostics.psdu_chips("esp")

    def test_chip_noise_conversion_value(self):
        # sps=2: pulse energy 2 -> chip noise = sigma^2 / 4.
        assert matched_filter_chip_noise_variance(0.4, 2) == pytest.approx(0.1)

    def test_chip_noise_none_for_quadrature(self, authentic_link):
        packet = transmit_one(authentic_link, 10.0, seed=1)
        assert packet.diagnostics.chip_noise_variance("quadrature", 2) is None
        assert packet.diagnostics.chip_noise_variance(
            "matched_filter", 2
        ) is not None

    def test_statistic_trial_counts(self, authentic_link):
        samples = distances(authentic_link, 15.0, count=4, seed=2)
        assert 1 <= len(samples) <= 4
        assert all(value >= 0 for value in samples)
        assert mean_or_nan(samples) >= 0

    def test_mean_of_empty_is_nan(self):
        assert np.isnan(mean_or_nan([]))

    def test_noise_corrected_statistics_smaller(self, authentic_link):
        plain = distances(
            authentic_link, 8.0, count=5, seed=3,
            chip_source="matched_filter", noise_corrected=False,
        )
        corrected = distances(
            authentic_link, 8.0, count=5, seed=3,
            chip_source="matched_filter", noise_corrected=True,
        )
        assert mean_or_nan(corrected) < mean_or_nan(plain)

    def test_statistic_trial_reports_the_named_cumulant(self, emulated_link):
        context = {
            "link": emulated_link,
            "receiver": defense_receiver(),
            "detector": CumulantDetector(),
        }
        rows = {
            statistic: statistic_trial(
                context, ("link", "quadrature", False, 15.0, statistic),
                spawn_rngs(4, 2),
            )
            for statistic in ("de2", "c42", "c40")
        }
        assert all(type(value) is float for value in rows["c42"])
        assert rows["c42"] != rows["c40"] != rows["de2"]
        with pytest.raises(ConfigurationError, match="statistic"):
            statistic_trial(
                context, ("link", "quadrature", False, 15.0, "c63"),
                spawn_rngs(4, 1),
            )
