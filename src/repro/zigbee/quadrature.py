"""Quadrature (frequency-discriminator) chip extraction.

GNU Radio's IEEE 802.15.4 receiver — the software the paper runs on its
USRPs — demodulates O-QPSK as MSK: a quadrature demodulator outputs the
instantaneous frequency, whose sign during each chip period carries one
(differentially encoded) chip.  Those frequency samples are the "input of
the DSSS demodulation" that the paper's defense pairs into a QPSK
constellation.

The discriminator is non-linear: phase discontinuities — exactly what the
emulation attack's cyclic-prefix boundaries create — become large
frequency spikes, making this extractor far more sensitive to the attack
than the coherent matched filter (and hence the one the defense
experiments use).

For an authentic waveform the per-chip phase advance is exactly +/- pi/2;
the extractor normalizes so clean chips land on +/-1.  Only the
within-chip phase steps are summed: the step straddling a chip boundary
mixes adjacent chips (inter-chip interference at low oversampling).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError, DecodingError
from repro.zigbee.constants import DEFAULT_SAMPLES_PER_CHIP
from repro.zigbee.oqpsk import ChipSamples


class QuadratureDemodulator:
    """Per-chip instantaneous-frequency extractor.

    The waveform must be time-aligned (frame start at sample zero), like
    the input of :class:`repro.zigbee.oqpsk.OqpskDemodulator`.  Phase
    offsets cancel in the differential operation; a carrier frequency
    offset appears as a constant bias on every soft chip.
    """

    def __init__(self, samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP):
        if samples_per_chip < 2:
            raise ConfigurationError(
                "quadrature demodulation needs >= 2 samples per chip"
            )
        self.samples_per_chip = samples_per_chip

    def capacity(self, num_samples: int) -> int:
        """How many whole chips fit in ``num_samples`` samples."""
        if num_samples < 2:
            return 0
        return (num_samples - 1) // self.samples_per_chip

    def demodulate(self, samples: np.ndarray, num_chips: int) -> ChipSamples:
        """Extract ``num_chips`` soft frequency values from the waveform."""
        waveform = np.asarray(samples, dtype=np.complex128)
        if waveform.ndim != 1:
            raise ConfigurationError("waveform must be 1-D")
        soft, hard = self.demodulate_batch(waveform[np.newaxis, :], num_chips)
        return ChipSamples(soft=soft[0], hard=hard[0])

    def demodulate_batch(
        self, waveforms: np.ndarray, num_chips: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-wise :meth:`demodulate` over a (batch, n) aligned stack.

        Returns ``(soft, hard)`` of shape (batch, num_chips); every
        operation reduces along the last axis only, so each row matches
        a scalar demodulation of that row bit-for-bit.
        """
        waveforms = np.asarray(waveforms, dtype=np.complex128)
        if waveforms.ndim != 2:
            raise ConfigurationError(
                f"batch waveforms must be 2-D, got shape {waveforms.shape}"
            )
        if num_chips < 0:
            raise ConfigurationError("num_chips must be non-negative")
        batch, n = waveforms.shape
        if num_chips > self.capacity(n):
            raise DecodingError(
                f"waveform of {n} samples holds only "
                f"{self.capacity(n)} chips, {num_chips} requested"
            )
        sps = self.samples_per_chip
        # The differential product runs row-by-row on 1-D views: numpy's
        # SIMD kernels for strided 2-D complex multiplies pick different
        # code paths (FMA/tail handling) depending on the batch shape,
        # which would break bit-identity between batch sizes.
        steps = np.empty((batch, max(n - 1, 0)), dtype=np.float64)
        for row in range(batch):
            line = waveforms[row]
            lagged = np.conj(line[:-1])
            steps[row] = np.angle(line[1:] * lagged)
        # Chip n sums its within-chip steps [n*sps, (n+1)*sps - 1); the
        # boundary step is excluded (it straddles two chips).
        needed = num_chips * sps
        blocks = steps[:, :needed].reshape(batch, num_chips, sps)
        soft = blocks[:, :, : sps - 1].sum(axis=-1)
        soft = soft / ((sps - 1) * np.pi / (2.0 * sps))
        hard = (soft > 0).astype(np.uint8)
        return soft, hard
