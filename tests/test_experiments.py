"""Smoke+shape tests for every experiment runner (tiny trial counts)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    fig5_waveform_comparison,
    fig6_constellation,
    fig7_hamming,
    fig8_cp_repetition,
    fig9_possible_strategies,
    fig10_c42,
    fig11_c40,
    fig12_defense,
    fig14_error_rates,
    table1_frequency_points,
    table2_attack_awgn,
    table3_theoretical_cumulants,
    table4_de2_snr,
    table5_de2_distance,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import experiment_ids, get_experiment


class TestResultType:
    def test_add_row_validates_columns(self):
        result = ExperimentResult("x", "t", columns=["a"])
        result.add_row(a=1)
        with pytest.raises(ConfigurationError):
            result.add_row(b=2)

    def test_format_table_renders(self):
        result = ExperimentResult("x", "title", columns=["a", "b"])
        result.add_row(a=1, b=2.5)
        result.notes.append("remark")
        text = result.format_table()
        assert "title" in text and "2.5000" in text and "remark" in text

    def test_registry_covers_all(self):
        assert len(experiment_ids()) == 15
        for experiment_id in experiment_ids():
            assert get_experiment(experiment_id).run is not None

    def test_registry_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            get_experiment("table9")


class TestDetectorMatrix:
    def test_matched_filter_variant_wins(self):
        from repro.experiments import detector_matrix

        result = detector_matrix.run(waveforms_per_cell=4, rng=3)
        margins = dict(
            zip((v.name for v in detector_matrix.STANDARD_VARIANTS),
                result.series["margins"])
        )
        assert margins["mf/|C40|/nc"] > 1.0


class TestTable1:
    def test_selection_matches_paper(self):
        result = table1_frequency_points.run(rng=0)
        assert tuple(result.series["selected_bins"].astype(int)) == (
            0, 1, 2, 3, 61, 62, 63,
        )


class TestTable2:
    def test_success_monotone_and_saturates(self):
        result = table2_attack_awgn.run(
            snrs_db=(7, 17), trials=15, include_authentic=False, rng=0
        )
        low, high = (row["success_rate"] for row in result.rows)
        assert high >= low
        assert high == 1.0
        assert low < 1.0


class TestTable3:
    def test_analytic_matches_paper_exactly(self):
        result = table3_theoretical_cumulants.run(sample_count=4000, rng=0)
        for row in result.rows:
            assert row["C40"] == pytest.approx(row["paper_C40"], abs=1e-3)
            assert row["C42"] == pytest.approx(row["paper_C42"], abs=1e-3)


class TestTable4:
    def test_emulated_statistic_dominates(self):
        result = table4_de2_snr.run(snrs_db=(17,), waveforms_per_point=5, rng=0)
        row = result.rows[0]
        assert row["emulated_de2"] > 10 * row["zigbee_de2"]


class TestTable5:
    def test_gap_exists_at_every_distance(self):
        result = table5_de2_distance.run(
            distances_m=(1, 4), waveforms_per_point=5, rng=0
        )
        for row in result.rows:
            assert row["emulated_de2"] > 3 * row["zigbee_de2"]


class TestFigures:
    def test_fig5_body_matches(self):
        result = fig5_waveform_comparison.run(rng=0)
        for row in result.rows:
            assert row["nmse_body"] < 0.2
            assert row["correlation_body"] > 0.9

    def test_fig6_real_scenario_rotates(self):
        result = fig6_constellation.run(rng=0)
        awgn_row, real_row = result.rows
        assert abs(real_row["phase_offset_deg"]) > abs(awgn_row["phase_offset_deg"])

    def test_fig7_distributions_disjoint(self):
        result = fig7_hamming.run(num_packets=3, rng=0)
        original = result.series["original"]
        emulated = result.series["emulated"]
        assert original[0] > 0.99
        assert emulated[0] < 0.01
        assert emulated[2:10].sum() > 0.95

    def test_fig8_pristine_detectable_received_not(self):
        result = fig8_cp_repetition.run(rng=0)
        rows = {row["waveform"]: row for row in result.rows}
        assert rows["emulated"]["cp_correlation_pristine"] > 0.95
        gap = abs(
            rows["emulated"]["cp_correlation_received"]
            - rows["original"]["cp_correlation_received"]
        )
        assert gap < 0.25

    def test_fig9_statistics_close_across_classes(self):
        result = fig9_possible_strategies.run(rng=0)
        rows = {row["metric"]: row for row in result.rows}
        deviation = rows["frequency_deviation_khz"]
        assert deviation["emulated"] == pytest.approx(
            deviation["original"], rel=0.3
        )
        assert rows["decoded_symbol_agreement"]["original"] == 1.0

    def test_fig10_trends(self):
        result = fig10_c42.run(snrs_db=(7, 17), waveforms_per_point=4, rng=0)
        zigbee = result.series["zigbee"]
        emulated = result.series["emulated"]
        # ZigBee approaches -1 with SNR; emulated stays farther away.
        assert abs(zigbee[-1] + 1) < abs(zigbee[0] + 1)
        assert abs(emulated[-1] + 1) > abs(zigbee[-1] + 1)

    def test_fig11_statistic_switch(self):
        result = fig11_c40.run(snrs_db=(17,), waveforms_per_point=3, rng=0)
        assert result.experiment_id == "fig11"
        assert result.rows[0]["zigbee_c40"] > 0.9

    def test_fig12_perfect_classification(self):
        result = fig12_defense.run(
            snrs_db=(17,), train_per_class=5, test_per_class=5, rng=0
        )
        for row in result.rows:
            assert row["false_alarm_rate"] == 0.0
            assert row["miss_rate"] == 0.0

    def test_fig14_usrp_degrades_commodity_survives(self):
        result = fig14_error_rates.run(distances_m=(1, 8), trials=4, rng=0)
        def cell(distance, receiver, waveform):
            for row in result.rows:
                if (row["distance_m"], row["receiver"], row["waveform"]) == (
                    distance, receiver, waveform,
                ):
                    return row
            raise AssertionError("missing cell")

        assert cell(1, "usrp", "original")["packet_error_rate"] == 0.0
        assert (
            cell(8, "usrp", "emulated")["packet_error_rate"]
            >= cell(1, "usrp", "emulated")["packet_error_rate"]
        )
        assert cell(8, "cc26x2", "original")["packet_error_rate"] <= 0.25
