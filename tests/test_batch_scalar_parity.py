"""Each batched kernel against its batch-of-one wrapper, row by row.

Every kernel has one implementation, the batched one; the scalar entry
points are batches of one.  ``tests/test_batched_trials.py`` pins the
end-to-end contract (driver rows identical for any chunking); this file
pins each kernel and trial in isolation, so a row that starts depending
on its batch neighbours names the exact kernel that broke.
"""

import numpy as np
import pytest

from repro.defense.constellation import (
    ConstellationOptions,
    reconstruct_constellation,
    reconstruct_constellation_batch,
)
from repro.defense.moments import (
    estimate_cumulants,
    estimate_cumulants_batch,
)
from repro.channel.awgn import AwgnChannel
from repro.experiments.common import (
    prepare_authentic,
    prepare_emulated,
    transmit_batch,
)
from repro.experiments.engine import MonteCarloEngine
from repro.utils.signal_ops import (
    lowpass_filter,
    lowpass_filter_batch,
    polyphase_resample,
    polyphase_resample_batch,
)
from repro.errors import SynchronizationError
from repro.zigbee.receiver import ZigBeeReceiver


def _complex_rows(rng, count, length):
    return [
        rng.standard_normal(length) + 1j * rng.standard_normal(length)
        for _ in range(count)
    ]


class TestSignalOpsParity:
    def test_lowpass_filter_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        rows = _complex_rows(rng, 4, 400)
        batched = lowpass_filter_batch(np.stack(rows), 2e6, 20e6)
        for row, filtered in zip(rows, batched):
            assert np.array_equal(filtered, lowpass_filter(row, 2e6, 20e6))

    def test_polyphase_resample_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        rows = _complex_rows(rng, 3, 360)
        batched = polyphase_resample_batch(np.stack(rows), 4e6, 20e6)
        for row, resampled in zip(rows, batched):
            assert np.array_equal(
                resampled, polyphase_resample(row, 4e6, 20e6)
            )


class TestDefenseKernelParity:
    def test_reconstruct_constellation_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        soft = rng.standard_normal((5, 64))
        for options in (None, ConstellationOptions(drop_header_chips=8)):
            batched = reconstruct_constellation_batch(soft, options)
            for row, points in zip(soft, batched):
                assert np.array_equal(
                    points, reconstruct_constellation(row, options)
                )

    def test_estimate_cumulants_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
        variances = [0.0, 0.01, 0.25, 0.0]
        batched = estimate_cumulants_batch(samples, variances)
        for row, variance, estimate in zip(samples, variances, batched):
            assert estimate == estimate_cumulants(row, variance)


class TestZigbeeChainParity:
    def test_synchronize_batch_matches_scalar(self):
        receiver = ZigBeeReceiver()
        prepared = prepare_authentic()
        baseband = receiver.channelize(prepared.on_air)
        rng = np.random.default_rng(7)
        rows = [
            baseband.samples + 0.01 * (
                rng.standard_normal(baseband.samples.size)
                + 1j * rng.standard_normal(baseband.samples.size)
            )
            for _ in range(3)
        ]
        synchronizer = receiver._synchronizer
        batched = synchronizer.synchronize_batch(np.stack(rows))
        for row, result in zip(rows, batched):
            scalar = synchronizer.synchronize(baseband.with_samples(row))
            assert result == scalar

    def test_oqpsk_demodulate_batch_matches_scalar(self):
        from repro.zigbee.oqpsk import OqpskDemodulator

        demod = OqpskDemodulator()
        rng = np.random.default_rng(8)
        rows = _complex_rows(rng, 4, 130)
        num_chips = demod.capacity(130) - demod.capacity(130) % 2
        for phase_tracking in (False, True):
            soft, hard = demod.demodulate_batch(
                np.stack(rows), num_chips, phase_tracking=phase_tracking
            )
            for i, row in enumerate(rows):
                scalar = demod.demodulate(
                    row, num_chips, phase_tracking=phase_tracking
                )
                assert np.array_equal(soft[i], scalar.soft)
                assert np.array_equal(hard[i], scalar.hard)

    def test_quadrature_demodulate_batch_matches_scalar(self):
        from repro.zigbee.quadrature import QuadratureDemodulator

        demod = QuadratureDemodulator()
        rng = np.random.default_rng(9)
        rows = _complex_rows(rng, 4, 101)
        num_chips = demod.capacity(101)
        soft, hard = demod.demodulate_batch(np.stack(rows), num_chips)
        for i, row in enumerate(rows):
            scalar = demod.demodulate(row, num_chips)
            assert np.array_equal(soft[i], scalar.soft)
            assert np.array_equal(hard[i], scalar.hard)


class TestTransmitParity:
    def test_transmit_batch_matches_awgn_channel_and_receive(self):
        """Each row's noise is the draw :class:`AwgnChannel` makes."""
        prepared = prepare_emulated(rng=3)
        receiver = ZigBeeReceiver()
        seeds = (21, 22, 23)
        batched = transmit_batch(
            prepared, receiver, 12.0,
            [np.random.default_rng(seed) for seed in seeds],
        )
        for seed, packet in zip(seeds, batched):
            channel = AwgnChannel(12.0, rng=np.random.default_rng(seed))
            try:
                single = receiver.receive(channel.apply(prepared.on_air))
            except SynchronizationError:
                assert packet is None
                continue
            assert packet is not None
            assert packet.psdu == single.psdu
            assert packet.fcs_ok == single.fcs_ok
            assert np.array_equal(
                packet.diagnostics.soft_chips, single.diagnostics.soft_chips
            )


def _session_rows(trial, context, count, static_args, chunk_size=None):
    engine = MonteCarloEngine(chunk_size=chunk_size)
    with engine.session(context) as session:
        return session.run(trial, count, rng=11, static_args=static_args)


class TestTrialParity:
    """Each driver trial: one batch == every trial a batch of one.

    The engine derives identical per-trial seeds for any chunking, so a
    trial whose rows are independent returns identical rows at
    ``chunk_size=1`` and in a single batch.
    """

    def test_table2_trials_match(self):
        from repro.defense.detector import CumulantDetector
        from repro.experiments.table2_attack_awgn import (
            _authentic_trial,
            _emulated_trial,
        )
        from repro.hardware.usrp import gnuradio_simulation_receiver_config

        context = {
            "receiver": ZigBeeReceiver(gnuradio_simulation_receiver_config()),
            "emulated": prepare_emulated(rng=3),
            "authentic": prepare_authentic(),
            "detector": CumulantDetector(),
        }
        args = (15.0,)
        for trial in (_emulated_trial, _authentic_trial):
            assert _session_rows(trial, context, 4, args, chunk_size=4) == \
                _session_rows(trial, context, 4, args, chunk_size=1)

    def test_statistic_trial_batch_matches_scalar(self):
        from repro.defense.detector import CumulantDetector
        from repro.experiments.defense_common import (
            defense_receiver,
            statistic_trial,
        )

        context = {
            "link": prepare_emulated(rng=3),
            "receiver": defense_receiver(),
            "detector": CumulantDetector(),
        }
        # Rows are plain D_E^2 floats (or None); the verdict is a
        # function of D_E^2, so equal rows mean equal verdicts.
        args = ("link", "quadrature", False, 15.0, "de2")
        batched = _session_rows(statistic_trial, context, 4, args, 4)
        single = _session_rows(statistic_trial, context, 4, args, 1)
        assert any(row is not None for row in single)
        assert batched == single

    def test_link_trial_batch_matches_scalar(self):
        from repro.experiments.fig14_error_rates import _link_trial
        from repro.channel.environment import RealEnvironment
        from repro.hardware.usrp import usrp_receiver_config

        context = {
            "env": RealEnvironment(rng=0),
            "receivers": {"usrp": ZigBeeReceiver(usrp_receiver_config())},
            "original": prepare_authentic(),
        }
        loss_db = usrp_receiver_config().implementation_loss_db
        args = ("original", "usrp", 3.0, loss_db)
        batched = _session_rows(_link_trial, context, 3, args, 3)
        single = _session_rows(_link_trial, context, 3, args, 1)
        # Rows are plain (symbol_errors, delivered) pairs or None.
        assert batched == single

if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
