"""Demand-driven receive: only the chip sources someone reads are computed.

A receive call runs the demodulator its despreader decodes from plus the
chip sources named in ``chips=``.  Skipping a demodulator must never
move a row, and reading a chip field that was not computed must raise
instead of returning an empty or stale array.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import table2_attack_awgn, table4_de2_snr
from repro.experiments.common import prepare_authentic
from repro.experiments.sweep import apply_scenario, load_scenario, run_sweep
from repro.hardware.usrp import usrp_receiver_config
from repro.zigbee.oqpsk import OqpskDemodulator
from repro.zigbee.receiver import CHIP_SOURCES, ReceiverConfig, ZigBeeReceiver

SCENARIOS = Path(__file__).resolve().parents[1] / "examples" / "scenarios"

CHIP_FIELDS = ("soft_chips", "hard_chips", "quadrature_soft_chips")


@pytest.fixture()
def oqpsk_calls(monkeypatch):
    """Counts calls to the matched-filter O-QPSK demodulator."""
    calls = []
    original = OqpskDemodulator.demodulate_batch

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(OqpskDemodulator, "demodulate_batch", counted)
    return calls


def _noisy_stack(rows=4, scale=0.2, seed=5):
    on_air = prepare_authentic().on_air
    rng = np.random.default_rng(seed)
    shape = (rows, on_air.samples.size)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return on_air.samples[np.newaxis, :] + scale * noise, on_air.sample_rate_hz


class TestChipDeclaration:
    @pytest.mark.parametrize("demodulation", ["matched_filter", "quadrature"])
    @pytest.mark.parametrize(
        "chips", [(), ("quadrature",), ("matched_filter",), CHIP_SOURCES]
    )
    def test_declared_rows_equal_full_rows(self, demodulation, chips):
        receiver = ZigBeeReceiver(ReceiverConfig(demodulation=demodulation))
        stack, rate = _noisy_stack()
        full = receiver.receive_batch(stack, rate, chips=CHIP_SOURCES)
        lean = receiver.receive_batch(stack, rate, chips=chips)
        computed = {demodulation, *chips}
        for got, want in zip(lean, full):
            assert (got is None) == (want is None)
            if want is None:
                continue
            assert got.psdu == want.psdu and got.fcs_ok == want.fcs_ok
            assert np.array_equal(
                got.diagnostics.symbol_array, want.diagnostics.symbol_array
            )
            assert np.array_equal(
                got.diagnostics.distance_array,
                want.diagnostics.distance_array,
            )
            assert got.diagnostics.noise_variance == (
                want.diagnostics.noise_variance
            )
            for name in CHIP_FIELDS:
                source = (
                    "quadrature" if name.startswith("quadrature")
                    else "matched_filter"
                )
                if source in computed:
                    assert np.array_equal(
                        getattr(got.diagnostics, name),
                        getattr(want.diagnostics, name),
                    ), name
                else:
                    with pytest.raises(ConfigurationError):
                        getattr(got.diagnostics, name)

    def test_undeclared_matched_filter_chips_raise(self):
        receiver = ZigBeeReceiver(ReceiverConfig(demodulation="quadrature"))
        stack, rate = _noisy_stack(rows=1)
        (packet,) = receiver.receive_batch(stack, rate)
        assert packet is not None and packet.decoded
        assert packet.diagnostics.psdu_quadrature_soft_chips.size > 0
        for name in ("soft_chips", "hard_chips", "psdu_soft_chips"):
            with pytest.raises(ConfigurationError, match="matched_filter"):
                getattr(packet.diagnostics, name)
        with pytest.raises(ConfigurationError, match="chips="):
            packet.diagnostics.soft_chips

    def test_undeclared_quadrature_chips_raise(self):
        receiver = ZigBeeReceiver()
        stack, rate = _noisy_stack(rows=1)
        (packet,) = receiver.receive_batch(stack, rate, chips=())
        assert packet is not None and packet.decoded
        assert packet.diagnostics.psdu_soft_chips.size > 0
        for name in ("quadrature_soft_chips", "psdu_quadrature_soft_chips"):
            with pytest.raises(ConfigurationError, match="'quadrature'"):
                getattr(packet.diagnostics, name)

    def test_scalar_calls_take_the_declaration(self):
        receiver = ZigBeeReceiver(ReceiverConfig(demodulation="quadrature"))
        stack, rate = _noisy_stack(rows=1)
        waveform = prepare_authentic().on_air.with_samples(stack[0])
        packet = receiver.receive(waveform, chips=("matched_filter",))
        assert packet.diagnostics.soft_chips.size > 0
        diagnostics = receiver.demodulate_chips(waveform, chips=())
        assert diagnostics.quadrature_soft_chips.size > 0
        with pytest.raises(ConfigurationError):
            diagnostics.hard_chips

    @pytest.mark.parametrize(
        "chips", [("bogus",), "quadrature", ("quadrature", "phase")]
    )
    def test_rejects_unknown_sources(self, chips):
        stack, rate = _noisy_stack(rows=1)
        with pytest.raises(ConfigurationError, match="chips"):
            ZigBeeReceiver().receive_batch(stack, rate, chips=chips)


class TestSweepsSkipUnreadDemodulators:
    def test_table2_default_profile_never_runs_oqpsk(self, oqpsk_calls):
        result = table2_attack_awgn.run(trials=4, snrs_db=(9, 15), rng=1)
        assert len(result.rows) == 2
        assert oqpsk_calls == []

    def test_fig14_usrp_cells_never_run_oqpsk(self, oqpsk_calls):
        from repro.channel.environment import RealEnvironment
        from repro.experiments.fig14_error_rates import _link_trial

        context = {
            "env": RealEnvironment(rng=0),
            "receivers": {"usrp": ZigBeeReceiver(usrp_receiver_config())},
            "original": prepare_authentic(),
        }
        loss_db = usrp_receiver_config().implementation_loss_db
        rngs = [np.random.default_rng(seed) for seed in range(3)]
        rows = _link_trial(context, ("original", "usrp", 2.0, loss_db), rngs)
        assert any(row is not None for row in rows)
        assert oqpsk_calls == []

    def test_matched_filter_tap_still_runs_oqpsk(self, oqpsk_calls):
        scenario = load_scenario(
            str(SCENARIOS / "table4_gnuradio_matched_filter.json")
        )
        overrides = apply_scenario(table4_de2_snr.SPEC, scenario)
        run_sweep(table4_de2_snr.SPEC, rng=3, **overrides)
        assert oqpsk_calls


class TestCrossProfileScenario:
    """Matched-filter defense chips from a quadrature-decoding receiver."""

    def test_rows_match_the_recorded_values(self):
        scenario = load_scenario(
            str(SCENARIOS / "table4_gnuradio_matched_filter.json")
        )
        overrides = apply_scenario(table4_de2_snr.SPEC, scenario)
        assert overrides["receiver_profile"] == "gnuradio"
        assert overrides["chip_source"] == "matched_filter"
        result = run_sweep(table4_de2_snr.SPEC, rng=3, **overrides)
        got = [
            (row["snr_db"], row["zigbee_de2"], row["emulated_de2"],
             row["separation_factor"])
            for row in result.rows
        ]
        # Recorded before the receive chain became demand-driven.
        assert got == [
            (9, 0.006743038011720112, 0.05999598008578389,
             8.897470247313532),
            (15, 0.00046561194253724633, 0.03627730838738665,
             77.91318278844335),
        ]
