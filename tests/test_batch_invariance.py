"""Rows of tall batches equal the same rows computed alone.

numpy elides temporaries of 256 KiB or more: ``x * <temporary>`` is then
computed in place as ``<temporary> * x``, and for complex arrays that
swap changes the last ulp of the imaginary part.  A kernel that
multiplies a complex array by an unnamed temporary therefore returns
different digits once its batch grows past the threshold.  The kernel
parity tests use batches of a few rows, far below it; every batch here
is at least ``TALL`` rows, where the largest complex temporary of each
kernel is well over 256 KiB.
"""

import numpy as np
import pytest

from repro.defense.detector import CumulantDetector
from repro.experiments import table5_de2_distance
from repro.experiments.common import prepare_authentic
from repro.zigbee.receiver import CHIP_SOURCES, ReceiverConfig, ZigBeeReceiver

TALL = 64
ELISION_BYTES = 256 * 1024


def _noisy_rows(samples, count, scale, seed):
    """``count`` copies of ``samples``, each with its own complex noise."""
    rng = np.random.default_rng(seed)
    shape = (count, samples.size)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return samples[np.newaxis, :] + scale * noise


def _assert_diagnostics_equal(got, want):
    assert got.sync == want.sync
    assert got.noise_variance == want.noise_variance
    for field in (
        "soft_chips",
        "hard_chips",
        "quadrature_soft_chips",
        "symbol_array",
        "distance_array",
        "runner_distance_array",
    ):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestSynchronizer:
    def test_tall_batch_rows_match_rows_alone(self):
        receiver = ZigBeeReceiver()
        baseband = receiver.channelize(prepare_authentic().on_air).samples
        stack = _noisy_rows(baseband, TALL, 0.05, seed=1)
        synchronizer = receiver._synchronizer
        template = synchronizer._template.size
        assert TALL * template * 16 > ELISION_BYTES

        batched = synchronizer.synchronize_rows(stack)
        assert all(sync is not None for sync, _ in batched)
        for row, outcome in zip(stack, batched):
            assert synchronizer.synchronize_rows(row[np.newaxis, :]) == [
                outcome
            ]


RECEIVER_CONFIGS = [
    ReceiverConfig(decimation=decimation, demodulation=demodulation)
    for decimation in ("filtered", "naive")
    for demodulation in ("matched_filter", "quadrature")
]


class TestReceiveBatch:
    @pytest.mark.parametrize(
        "config",
        RECEIVER_CONFIGS,
        ids=lambda c: f"{c.decimation}-{c.demodulation}",
    )
    def test_tall_batch_rows_match_rows_alone(self, config):
        receiver = ZigBeeReceiver(config)
        on_air = prepare_authentic().on_air
        stack = _noisy_rows(on_air.samples, TALL, 0.3, seed=2)
        assert stack.nbytes > ELISION_BYTES

        batched = receiver.receive_batch(
            stack, on_air.sample_rate_hz, chips=CHIP_SOURCES
        )
        assert sum(packet is not None for packet in batched) > TALL // 2
        for row, packet in zip(stack, batched):
            (alone,) = receiver.receive_batch(
                row[np.newaxis, :], on_air.sample_rate_hz, chips=CHIP_SOURCES
            )
            if alone is None:
                assert packet is None
                continue
            assert packet is not None
            assert packet.psdu == alone.psdu
            assert packet.fcs_ok == alone.fcs_ok
            _assert_diagnostics_equal(packet.diagnostics, alone.diagnostics)


class TestCumulantDetector:
    def test_tall_batch_rows_match_rows_alone(self):
        rng = np.random.default_rng(3)
        chips = 2048
        soft = np.sign(rng.standard_normal((TALL, chips))) + 0.2 * (
            rng.standard_normal((TALL, chips))
        )
        variances = list(rng.uniform(0.0, 0.05, TALL))
        assert TALL * (chips // 2) * 16 > ELISION_BYTES

        detector = CumulantDetector()
        batched = detector.statistic_batch(list(soft), variances)
        for row, variance, result in zip(soft, variances, batched):
            (alone,) = detector.statistic_batch([row], [variance])
            assert result.hypothesis == alone.hypothesis
            assert result.distance_squared == alone.distance_squared
            assert np.array_equal(result.feature, alone.feature)
            assert result.cumulants == alone.cumulants


@pytest.fixture(scope="module")
def table5_rows():
    """Table V rows at every chunking that matters, seed 0, 30 per point."""

    def rows(chunk_size):
        return table5_de2_distance.run(
            waveforms_per_point=30, rng=0, chunk_size=chunk_size
        ).rows

    return {chunk: rows(chunk) for chunk in (1, None, 30)}


class TestTable5Chunking:
    """A chunk of 30 puts 30 sync windows in one batch: over the threshold."""

    def test_default_chunking_matches_batches_of_one(self, table5_rows):
        assert table5_rows[None] == table5_rows[1]

    def test_one_chunk_per_point_matches_batches_of_one(self, table5_rows):
        assert table5_rows[30] == table5_rows[1]
