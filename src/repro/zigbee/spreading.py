"""DSSS spreading and despreading (Fig. 1 of the paper).

Spreading multiplies each 4-bit symbol into its 32-chip PN sequence.
Despreading performs hard-decision minimum-Hamming-distance decoding
against the chip table with a configurable *correlation threshold*: if the
best distance exceeds the threshold the sequence is dropped, which is how
the paper's receiver rejects noise while still accepting the emulated
waveform's 4-8 chip errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, DecodingError
from repro.zigbee.chips import chip_table, chip_table_antipodal, chip_table_int64
from repro.zigbee.constants import (
    CHIPS_PER_SYMBOL,
    DEFAULT_CORRELATION_THRESHOLD,
    NUM_SYMBOLS,
)


def spread_symbols(symbols: Iterable[int]) -> np.ndarray:
    """Map data symbols (0-15) to their concatenated chip sequences."""
    table = chip_table()
    symbol_array = np.asarray(list(symbols), dtype=np.int64)
    if symbol_array.size and (symbol_array.min() < 0 or symbol_array.max() >= NUM_SYMBOLS):
        raise ConfigurationError("data symbols must be in [0, 15]")
    if symbol_array.size == 0:
        return np.zeros(0, dtype=np.uint8)
    return table[symbol_array].reshape(-1).astype(np.uint8)


@dataclass(frozen=True)
class DespreadDecision:
    """Outcome of despreading one 32-chip sequence.

    Attributes:
        symbol: the decoded data symbol, or ``None`` when the sequence was
            dropped because the best Hamming distance exceeded the threshold.
        hamming_distance: distance between the received chips and the chip
            sequence of the best-matching symbol.
        runner_up_distance: distance to the second-best symbol, a confidence
            margin used by diagnostics.
    """

    symbol: Optional[int]
    hamming_distance: int
    runner_up_distance: int

    @property
    def accepted(self) -> bool:
        """Whether the chip sequence decoded to a symbol."""
        return self.symbol is not None


def min_hamming_despread(
    chips: np.ndarray, table: np.ndarray, threshold: int, first_chip: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-Hamming-distance decoding of a (..., chips) hard-decision stack.

    The one despreading kernel: ``chips`` is a 1-D chip stream or any
    stack whose last axis is a whole number of 32-chip sequences;
    ``table`` holds one codeword per symbol over chips ``first_chip..31``
    of a sequence (the MSK table masks chip 0).  Returns ``(symbols,
    distances, runner_up_distances)`` int64 arrays with one entry per
    sequence (leading axes preserved).  A sequence whose best distance
    exceeds ``threshold`` carries symbol ``-1``, so the hot receive path
    never materializes per-symbol :class:`DespreadDecision` objects.
    Integer-exact, so any batching gives the same entries.
    """
    chip_array = np.asarray(chips, dtype=np.int64)
    if chip_array.shape[-1] % CHIPS_PER_SYMBOL != 0:
        raise DecodingError(
            f"chip stream of {chip_array.shape[-1]} is not a whole "
            f"number of symbols"
        )
    out_shape = chip_array.shape[:-1] + (
        chip_array.shape[-1] // CHIPS_PER_SYMBOL,
    )
    if chip_array.size == 0:
        empty = np.zeros(out_shape, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    blocks = chip_array.reshape(-1, CHIPS_PER_SYMBOL)[:, first_chip:]
    # distances[i, s] = Hamming distance of block i to codeword s.
    distances = np.count_nonzero(
        blocks[:, None, :] != table[None, :, :], axis=2
    )
    order = np.argsort(distances, axis=1, kind="stable")
    rows = np.arange(blocks.shape[0])
    best_distances = distances[rows, order[:, 0]]
    runner_distances = distances[rows, order[:, 1]]
    symbols = np.where(best_distances <= threshold, order[:, 0], -1)
    return (
        symbols.reshape(out_shape),
        best_distances.reshape(out_shape),
        runner_distances.reshape(out_shape),
    )


def despread_decisions(
    symbols: np.ndarray, distances: np.ndarray, runner_distances: np.ndarray
) -> List[DespreadDecision]:
    """Flat kernel outputs as decision objects (symbol ``-1`` -> ``None``)."""
    return [
        DespreadDecision(
            symbol=int(symbol) if symbol >= 0 else None,
            hamming_distance=int(distance),
            runner_up_distance=int(runner),
        )
        for symbol, distance, runner in zip(
            symbols.reshape(-1), distances.reshape(-1),
            runner_distances.reshape(-1),
        )
    ]


def one_sequence(chips: Sequence[int]) -> np.ndarray:
    """Exactly one 32-chip block as int64, or :class:`ConfigurationError`."""
    block = np.asarray(chips, dtype=np.int64).reshape(-1)
    if block.size != CHIPS_PER_SYMBOL:
        raise ConfigurationError(
            f"expected {CHIPS_PER_SYMBOL} chips, got {block.size}"
        )
    return block


class DsssDespreader:
    """Hard-decision DSSS decoder with a Hamming-distance threshold."""

    def __init__(self, correlation_threshold: int = DEFAULT_CORRELATION_THRESHOLD):
        if not 0 <= correlation_threshold <= CHIPS_PER_SYMBOL:
            raise ConfigurationError(
                f"correlation threshold must be in [0, {CHIPS_PER_SYMBOL}]"
            )
        self.correlation_threshold = correlation_threshold
        self._table = chip_table_int64()

    def despread_sequence(self, chips: Sequence[int]) -> DespreadDecision:
        """Decode exactly one 32-chip hard-decision sequence."""
        return self.despread(one_sequence(chips))[0]

    def despread_arrays(
        self, chips: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`min_hamming_despread` against the standard chip table."""
        return min_hamming_despread(
            chips, self._table, self.correlation_threshold
        )

    def despread(self, chips: Sequence[int]) -> List[DespreadDecision]:
        """Decode a chip stream; length must be a multiple of 32."""
        return despread_decisions(*self.despread_arrays(chips))

    def decode_symbols(self, chips: Sequence[int]) -> Tuple[List[Optional[int]], List[int]]:
        """Convenience wrapper returning (symbols, hamming distances)."""
        decisions = self.despread(chips)
        return (
            [decision.symbol for decision in decisions],
            [decision.hamming_distance for decision in decisions],
        )


class SoftDsssDespreader:
    """Soft-decision DSSS decoding: maximum correlation over codewords.

    Instead of slicing chips to bits and counting disagreements, the
    soft despreader correlates the real-valued chip samples against the
    antipodal (+/-1) chip sequences and picks the largest correlation —
    the matched-filter-optimal rule, worth ~1-2 dB over hard decisions.
    A normalized-margin threshold replaces the Hamming threshold: the
    winning correlation must exceed ``acceptance`` times the maximum
    possible (the received energy projected on the codeword).
    """

    def __init__(self, acceptance: float = 0.2):
        if not 0.0 <= acceptance <= 1.0:
            raise ConfigurationError("acceptance must be in [0, 1]")
        self.acceptance = acceptance
        self._antipodal = chip_table_antipodal()

    def despread_sequence(self, soft_chips: Sequence[float]) -> DespreadDecision:
        """Decode one 32-sample soft chip block."""
        block = np.asarray(soft_chips, dtype=np.float64)
        if block.size != CHIPS_PER_SYMBOL:
            raise ConfigurationError(
                f"expected {CHIPS_PER_SYMBOL} soft chips, got {block.size}"
            )
        correlations = self._antipodal @ block
        order = np.argsort(-correlations, kind="stable")
        best, runner_up = int(order[0]), int(order[1])
        scale = float(np.sum(np.abs(block)))
        accepted = scale > 0 and correlations[best] >= self.acceptance * scale
        # Report an equivalent hard Hamming distance for diagnostics.
        hard = (block > 0).astype(np.int64)
        reference = chip_table()[best].astype(np.int64)
        distance = int(np.count_nonzero(hard != reference))
        runner_reference = chip_table()[runner_up].astype(np.int64)
        runner_distance = int(np.count_nonzero(hard != runner_reference))
        return DespreadDecision(
            symbol=best if accepted else None,
            hamming_distance=distance,
            runner_up_distance=runner_distance,
        )

    def despread(self, soft_chips: Sequence[float]) -> List[DespreadDecision]:
        """Decode a soft chip stream; length must be whole symbols."""
        stream = np.asarray(soft_chips, dtype=np.float64)
        if stream.size % CHIPS_PER_SYMBOL != 0:
            raise DecodingError(
                f"chip stream of {stream.size} is not a whole number of symbols"
            )
        return [
            self.despread_sequence(stream[i : i + CHIPS_PER_SYMBOL])
            for i in range(0, stream.size, CHIPS_PER_SYMBOL)
        ]
