"""MSK-view despreading for the quadrature (frequency-sign) receive path.

GNU Radio's 802.15.4 receiver — the paper's software stack — treats
half-sine O-QPSK as MSK: the per-chip frequency sign carries a
differentially encoded chip stream.  Empirically (and analytically, from
the continuous-phase trellis) the relation between transmitted chips
``a`` and frequency signs ``b`` is::

    b[n] = a[n] XOR a[n-1] XOR (n mod 2)

Because 32 divides every symbol boundary, the parity term depends only on
the within-symbol chip index; but ``b[0]`` of every symbol depends on the
*previous* symbol's last chip, so the MSK chip table masks chip 0 and
correlates over the remaining 31 chips — the 0x7FFFFFFE mask of the
well-known GNU Radio implementation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.zigbee.chips import chip_table
from repro.zigbee.constants import CHIPS_PER_SYMBOL, NUM_SYMBOLS
from repro.zigbee.spreading import (
    DespreadDecision,
    despread_decisions,
    min_hamming_despread,
    one_sequence,
)

#: Number of unmasked chips the MSK correlator uses per symbol.
MSK_USABLE_CHIPS = CHIPS_PER_SYMBOL - 1

#: Default Hamming tolerance over the 31 usable chips, mirroring the
#: paper's threshold of 10 (out of 32) for the coherent path.
DEFAULT_MSK_THRESHOLD = 10


@lru_cache(maxsize=1)
def msk_chip_table() -> np.ndarray:
    """Frequency-sign sequences for all 16 symbols (chip 0 is a dummy).

    Entry ``[s, j]`` for j >= 1 is ``a[j] ^ a[j-1] ^ (j % 2)`` of symbol
    s's chip sequence; entry ``[s, 0]`` assumes a previous chip of 0 and
    must be masked during correlation.
    """
    base = chip_table().astype(np.int64)
    table = np.zeros((NUM_SYMBOLS, CHIPS_PER_SYMBOL), dtype=np.uint8)
    parity = np.arange(CHIPS_PER_SYMBOL) % 2
    for symbol in range(NUM_SYMBOLS):
        chips = base[symbol]
        previous = np.concatenate([[0], chips[:-1]])
        table[symbol] = (chips ^ previous ^ parity).astype(np.uint8)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=1)
def msk_usable_table_int64() -> np.ndarray:
    """The masked (chip 0 dropped) MSK table as read-only int64.

    Cached so despreader construction — once per unpickled context in
    every pool worker — stops re-slicing and re-casting the table.
    """
    table = np.ascontiguousarray(msk_chip_table()[:, 1:].astype(np.int64))
    table.setflags(write=False)
    return table


class MskDespreader:
    """Masked minimum-Hamming-distance decoder over frequency signs."""

    def __init__(self, correlation_threshold: int = DEFAULT_MSK_THRESHOLD):
        if not 0 <= correlation_threshold <= MSK_USABLE_CHIPS:
            raise ConfigurationError(
                f"MSK correlation threshold must be in [0, {MSK_USABLE_CHIPS}]"
            )
        self.correlation_threshold = correlation_threshold
        self._table = msk_usable_table_int64()

    def despread_sequence(self, freq_chips: Sequence[int]) -> DespreadDecision:
        """Decode one 32-chip frequency-sign block (chip 0 ignored)."""
        return self.despread(one_sequence(freq_chips))[0]

    def despread_arrays(
        self, freq_chips: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array-form masked despreading of a (..., chips) sign stream.

        :func:`repro.zigbee.spreading.min_hamming_despread` on the MSK
        table, with chip 0 of each sequence masked.
        """
        return min_hamming_despread(
            freq_chips, self._table, self.correlation_threshold, first_chip=1
        )

    def despread(self, freq_chips: Sequence[int]) -> List[DespreadDecision]:
        """Decode a frequency-sign stream; length must be whole symbols."""
        return despread_decisions(*self.despread_arrays(freq_chips))
