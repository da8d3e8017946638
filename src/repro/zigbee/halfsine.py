"""Half-sine pulse shaping primitives for the 802.15.4 O-QPSK PHY.

Each chip modulates a half-sine pulse lasting two chip periods; because
same-rail chips are spaced two chip periods apart the pulses do not
overlap, and the offset between the I and Q rails produces the familiar
constant-envelope (MSK-equivalent) waveform.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError


@lru_cache(maxsize=16)
def half_sine_pulse(samples_per_chip: int) -> np.ndarray:
    """Half-sine pulse sampled at ``samples_per_chip`` samples per chip.

    The pulse spans two chip periods (``2 * samples_per_chip`` samples).
    Sampling instants are offset by half a sample so that the discrete
    pulse is symmetric and the summed I/Q envelope is exactly constant.
    """
    if samples_per_chip < 1:
        raise ConfigurationError("samples_per_chip must be >= 1")
    length = 2 * samples_per_chip
    n = np.arange(length)
    pulse = np.sin(np.pi * (n + 0.5) / length)
    pulse.setflags(write=False)
    return pulse


def pulse_energy(samples_per_chip: int) -> float:
    """Energy of the discrete half-sine pulse (sum of squares)."""
    pulse = half_sine_pulse(samples_per_chip)
    return float(np.sum(pulse**2))


def matched_filter_chip_noise_variance(
    sample_noise_variance: float, samples_per_chip: int
) -> float:
    """Noise power per matched-filter soft chip given per-sample noise.

    The soft chip is ``sum(Re(r) p) / E_p`` over one pulse, so complex
    sample noise of variance ``sigma^2`` contributes ``sigma^2 / (2 E_p)``.
    """
    return sample_noise_variance / (2.0 * pulse_energy(samples_per_chip))


def shape_rail(rail_chips: np.ndarray, samples_per_chip: int) -> np.ndarray:
    """Shape one rail's antipodal chips (+/-1) with non-overlapping pulses.

    Args:
        rail_chips: array of +/-1 values, one per rail chip.
        samples_per_chip: oversampling factor per chip period.

    Returns:
        Real waveform of length ``len(rail_chips) * 2 * samples_per_chip``.
    """
    chips = np.asarray(rail_chips, dtype=np.float64)
    if chips.ndim != 1:
        raise ConfigurationError("rail chips must be a 1-D array")
    pulse = half_sine_pulse(samples_per_chip)
    # Pulses on one rail are spaced exactly one pulse length apart, so the
    # shaped rail is an outer product reshaped into a stream.
    return (chips[:, None] * pulse[None, :]).reshape(-1)
