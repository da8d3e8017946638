"""Tests for DSSS spreading and threshold despreading."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DecodingError
from repro.zigbee.chips import chips_for_symbol
from repro.zigbee.msk import MskDespreader, msk_chip_table
from repro.zigbee.spreading import DsssDespreader, spread_symbols


class TestSpreading:
    def test_single_symbol(self):
        chips = spread_symbols([5])
        assert np.array_equal(chips, chips_for_symbol(5))

    def test_concatenation(self):
        chips = spread_symbols([1, 2])
        assert chips.size == 64
        assert np.array_equal(chips[:32], chips_for_symbol(1))
        assert np.array_equal(chips[32:], chips_for_symbol(2))

    def test_empty(self):
        assert spread_symbols([]).size == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            spread_symbols([16])


class TestDespreading:
    def test_perfect_roundtrip(self):
        despreader = DsssDespreader()
        symbols = list(range(16))
        decoded, distances = despreader.decode_symbols(spread_symbols(symbols))
        assert decoded == symbols
        assert distances == [0] * 16

    def test_tolerates_errors_within_threshold(self):
        despreader = DsssDespreader(correlation_threshold=5)
        chips = spread_symbols([7]).copy()
        chips[[0, 5, 9, 20, 31]] ^= 1  # five chip errors
        decision = despreader.despread_sequence(chips)
        assert decision.symbol == 7
        assert decision.hamming_distance == 5
        assert decision.accepted

    def test_drops_beyond_threshold(self):
        despreader = DsssDespreader(correlation_threshold=3)
        chips = spread_symbols([7]).copy()
        chips[:5] ^= 1
        decision = despreader.despread_sequence(chips)
        assert decision.symbol is None
        assert not decision.accepted

    def test_runner_up_distance_exceeds_best(self):
        despreader = DsssDespreader()
        decision = despreader.despread_sequence(spread_symbols([3]))
        assert decision.runner_up_distance >= decision.hamming_distance
        assert decision.runner_up_distance >= 12  # table min distance

    def test_rejects_partial_sequence(self):
        despreader = DsssDespreader()
        with pytest.raises(ConfigurationError):
            despreader.despread_sequence(np.zeros(31, dtype=np.uint8))

    def test_rejects_ragged_stream(self):
        despreader = DsssDespreader()
        with pytest.raises(DecodingError):
            despreader.despread(np.zeros(33, dtype=np.uint8))

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            DsssDespreader(correlation_threshold=33)

    @given(
        st.integers(0, 15),
        st.lists(st.integers(0, 31), min_size=0, max_size=5, unique=True),
    )
    def test_decodes_with_up_to_five_errors(self, symbol, error_positions):
        """min distance 12 -> up to 5 errors always decode correctly."""
        despreader = DsssDespreader(correlation_threshold=10)
        chips = spread_symbols([symbol]).copy()
        for position in error_positions:
            chips[position] ^= 1
        decision = despreader.despread_sequence(chips)
        assert decision.symbol == symbol
        assert decision.hamming_distance == len(error_positions)


class TestOneDespreadKernel:
    """Both hard-decision despreaders are the one min-Hamming kernel."""

    @pytest.mark.parametrize("despreader", [
        DsssDespreader(correlation_threshold=8),
        MskDespreader(correlation_threshold=8),
    ], ids=["dsss", "msk"])
    def test_sequence_is_a_batch_of_one(self, despreader):
        blocks = np.random.default_rng(5).integers(0, 2, size=(40, 32))
        symbols, distances, runners = despreader.despread_arrays(blocks)
        for block, symbol, distance, runner in zip(
            blocks, symbols[:, 0], distances[:, 0], runners[:, 0]
        ):
            decision = despreader.despread_sequence(block)
            assert decision.symbol == (symbol if symbol >= 0 else None)
            assert decision.hamming_distance == distance
            assert decision.runner_up_distance == runner
        assert despreader.despread(blocks.reshape(-1)) == [
            despreader.despread_sequence(block) for block in blocks
        ]

    def test_msk_masks_chip_zero(self):
        freq = msk_chip_table()[6].astype(np.int64)
        flipped = freq.copy()
        flipped[0] ^= 1
        despreader = MskDespreader()
        assert despreader.despread_sequence(flipped) == \
            despreader.despread_sequence(freq)
        assert despreader.despread_sequence(freq).symbol == 6

    def test_msk_rejects_partial_sequence(self):
        with pytest.raises(ConfigurationError):
            MskDespreader().despread_sequence(np.zeros(31, dtype=np.uint8))
