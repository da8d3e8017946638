"""Constellation reconstruction from chip-rate soft samples (Sec. VI-A2).

The defense taps the input of the DSSS demodulation: the matched-filter
soft chip samples.  Alternating samples form the real and imaginary parts
of complex points — an authentic ZigBee transmission lands on a clean
QPSK constellation, while the emulated waveform's quantization and FFT-
truncation errors scatter the points.

Convention note: the raw pairing produces points at (+/-1 +/- 1j)/sqrt(2),
whose theoretical C40 is -1.  Table III (after Swami & Sadler) states the
QPSK cumulants for the {1, j, -1, -j} orientation (C40 = +1), so we rotate
the reconstructed constellation by 45 degrees to match the table — a pure
convention with no effect on |C40| or C42.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

_ROTATION = np.exp(1j * np.pi / 4.0) / np.sqrt(2.0)


@dataclass(frozen=True)
class ConstellationOptions:
    """How to turn soft chips into constellation points.

    Attributes:
        rotate_to_axes: rotate by 45 degrees so ideal points are
            {1, j, -1, -j}, matching Table III's QPSK row.
        normalize: scale so the sample estimate of C21 is one.
        drop_header_chips: discard this many leading chips (the all-zero
            preamble produces degenerate, perfectly repetitive points that
            would bias the statistics; the paper implicitly analyses
            payload chips).
    """

    rotate_to_axes: bool = True
    normalize: bool = True
    drop_header_chips: int = 0


def reconstruct_constellation(
    soft_chips: np.ndarray, options: Optional[ConstellationOptions] = None
) -> np.ndarray:
    """Build the QPSK-candidate constellation from soft chip samples.

    Args:
        soft_chips: real-valued matched-filter outputs, one per chip.
        options: reconstruction conventions (defaults match Table III).

    Returns:
        Complex constellation points, one per chip pair.
    """
    soft = np.asarray(soft_chips, dtype=np.float64)
    if soft.ndim != 1:
        raise ConfigurationError("soft chips must be a 1-D array")
    return reconstruct_constellation_batch(soft[np.newaxis, :], options)[0]


def reconstruct_constellation_batch(
    soft_chips: np.ndarray, options: Optional[ConstellationOptions] = None
) -> np.ndarray:
    """Row-wise :func:`reconstruct_constellation` over a (batch, chips) stack.

    Each row must hold the same number of soft chips (callers group
    packets by length).  The complex points are assembled by real/imag
    component copies and every reduction runs along the last axis, so
    a row's points do not depend on the other rows.
    """
    opts = options or ConstellationOptions()
    soft = np.asarray(soft_chips, dtype=np.float64)
    if soft.ndim != 2:
        raise ConfigurationError("batch soft chips must be a 2-D array")
    if opts.drop_header_chips < 0:
        raise ConfigurationError("drop_header_chips must be >= 0")
    soft = soft[:, opts.drop_header_chips :]
    usable = soft.shape[1] - (soft.shape[1] % 2)
    if usable < 2:
        raise ConfigurationError("need at least one chip pair")
    soft = soft[:, :usable]

    points = np.empty((soft.shape[0], usable // 2), dtype=np.complex128)
    points.real = soft[:, 0::2]
    points.imag = soft[:, 1::2]
    if opts.rotate_to_axes:
        points = points * _ROTATION
    if opts.normalize:
        power = np.mean(np.abs(points) ** 2, axis=-1)
        if np.any(power <= 0.0):
            raise ConfigurationError("cannot normalize zero-power points")
        points = points / np.sqrt(power)[:, None]
    return points


def ideal_qpsk_points() -> np.ndarray:
    """The four ideal points of the rotated convention: {1, j, -1, -j}."""
    return np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j], dtype=np.complex128)
