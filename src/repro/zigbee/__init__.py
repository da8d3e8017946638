"""IEEE 802.15.4 (ZigBee) O-QPSK PHY and MAC implementation.

The package implements both ends of Fig. 1 of the paper: DSSS spreading,
half-sine O-QPSK modulation, synchronization/clock recovery, matched-
filter demodulation, threshold despreading, and PHY/MAC framing.
"""

from repro.zigbee.chips import chip_table, chips_for_symbol, min_pairwise_chip_distance
from repro.zigbee.constants import (
    CHIP_RATE_HZ,
    CHIPS_PER_SYMBOL,
    DEFAULT_CORRELATION_THRESHOLD,
    DEFAULT_SAMPLE_RATE_HZ,
    DEFAULT_SAMPLES_PER_CHIP,
    NUM_SYMBOLS,
    SYMBOL_PERIOD_S,
    SYMBOL_RATE_HZ,
    channel_center_frequency_hz,
)
from repro.zigbee.frame import MacFrame, PhyFrame, bytes_to_symbols, symbols_to_bytes
from repro.zigbee.oqpsk import (
    ChipSamples,
    OqpskDemodulator,
    OqpskModulator,
    chips_to_constellation,
)
from repro.zigbee.receiver import (
    CHIP_SOURCES,
    HEADER_SYMBOLS,
    ReceiveDiagnostics,
    ReceivedPacket,
    ReceiverConfig,
    ZigBeeReceiver,
)
from repro.zigbee.quadrature import QuadratureDemodulator
from repro.zigbee.spreading import (
    DespreadDecision,
    DsssDespreader,
    SoftDsssDespreader,
    spread_symbols,
)
from repro.zigbee.synchronizer import SyncResult, Synchronizer, apply_corrections
from repro.zigbee.transmitter import TransmitResult, ZigBeeTransmitter

__all__ = [
    "CHIPS_PER_SYMBOL",
    "CHIP_RATE_HZ",
    "CHIP_SOURCES",
    "ChipSamples",
    "DEFAULT_CORRELATION_THRESHOLD",
    "DEFAULT_SAMPLES_PER_CHIP",
    "DEFAULT_SAMPLE_RATE_HZ",
    "DespreadDecision",
    "DsssDespreader",
    "HEADER_SYMBOLS",
    "MacFrame",
    "NUM_SYMBOLS",
    "OqpskDemodulator",
    "OqpskModulator",
    "PhyFrame",
    "QuadratureDemodulator",
    "ReceiveDiagnostics",
    "ReceivedPacket",
    "ReceiverConfig",
    "SYMBOL_PERIOD_S",
    "SYMBOL_RATE_HZ",
    "SoftDsssDespreader",
    "SyncResult",
    "Synchronizer",
    "TransmitResult",
    "ZigBeeReceiver",
    "ZigBeeTransmitter",
    "apply_corrections",
    "bytes_to_symbols",
    "channel_center_frequency_hz",
    "chip_table",
    "chips_for_symbol",
    "chips_to_constellation",
    "min_pairwise_chip_distance",
    "spread_symbols",
    "symbols_to_bytes",
]
