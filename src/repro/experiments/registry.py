"""Registry mapping paper artifact ids to experiment runners.

An :class:`ExperimentEntry` is a sweep entry when it carries a
:class:`repro.experiments.sweep.SweepSpec` (``spec is not None``): the
CLI runs it through :func:`repro.experiments.sweep.run_sweep`, so it
takes every engine option and scenario files.  ``trials_param`` names
the keyword a ``--trials`` override maps to, for sweep and direct
runners alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

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
    fig13_rssi,
    fig14_error_rates,
    table1_frequency_points,
    table2_attack_awgn,
    table3_theoretical_cumulants,
    table4_de2_snr,
    table5_de2_distance,
)
from repro.experiments.common import ExperimentResult


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproducible paper artifact.

    Attributes:
        experiment_id: registry key (``table2``, ``fig12``, ...).
        description: one-line summary shown by ``repro-experiments list``.
        run: the runner callable returning an :class:`ExperimentResult`.
        spec: the declarative sweep spec for sweep-backed experiments,
            ``None`` for direct runners.
        trials_param: the runner's trial-count keyword (``trials``,
            ``waveforms_per_point``, ...), or ``None`` when the runner
            has no trial-count notion.
    """

    experiment_id: str
    description: str
    run: Callable[..., ExperimentResult]
    spec: Optional[Any] = None
    trials_param: Optional[str] = None


_ENTRIES = [
    ExperimentEntry("table1", "FFT magnitudes and subcarrier selection",
                    table1_frequency_points.run,
                    trials_param="num_waveforms"),
    ExperimentEntry("table2", "attack success rate vs SNR (AWGN)",
                    table2_attack_awgn.run, spec=table2_attack_awgn.SPEC,
                    trials_param="trials"),
    ExperimentEntry("table3", "theoretical cumulants per constellation",
                    table3_theoretical_cumulants.run,
                    trials_param="sample_count"),
    ExperimentEntry("table4", "averaged D_E^2 vs SNR",
                    table4_de2_snr.run, spec=table4_de2_snr.SPEC,
                    trials_param="waveforms_per_point"),
    ExperimentEntry("table5", "averaged D_E^2 vs distance (real env)",
                    table5_de2_distance.run, spec=table5_de2_distance.SPEC,
                    trials_param="waveforms_per_point"),
    ExperimentEntry("fig5", "original vs emulated waveform I/Q",
                    fig5_waveform_comparison.run),
    ExperimentEntry("fig6", "constellation diagrams, AWGN vs real",
                    fig6_constellation.run),
    ExperimentEntry("fig7", "Hamming distance distributions",
                    fig7_hamming.run, spec=fig7_hamming.SPEC,
                    trials_param="num_packets"),
    ExperimentEntry("fig8", "cyclic-prefix baseline failure",
                    fig8_cp_repetition.run),
    ExperimentEntry("fig9", "phase/chip baseline failures",
                    fig9_possible_strategies.run),
    ExperimentEntry("fig10", "C42 vs SNR", fig10_c42.run,
                    spec=fig10_c42.SPEC, trials_param="waveforms_per_point"),
    ExperimentEntry("fig11", "C40 vs SNR", fig11_c40.run,
                    spec=fig11_c40.SPEC, trials_param="waveforms_per_point"),
    ExperimentEntry("fig12", "calibrated threshold defense test",
                    fig12_defense.run, spec=fig12_defense.SPEC),
    ExperimentEntry("fig13", "RSSI vs distance (table in Fig. 13)",
                    fig13_rssi.run, spec=fig13_rssi.SPEC,
                    trials_param="packets_per_point"),
    ExperimentEntry("fig14", "error rates vs distance per receiver",
                    fig14_error_rates.run, spec=fig14_error_rates.SPEC,
                    trials_param="trials"),
]

REGISTRY: Dict[str, ExperimentEntry] = {e.experiment_id: e for e in _ENTRIES}


def experiment_ids() -> List[str]:
    """All reproducible artifact ids, in paper order."""
    return [entry.experiment_id for entry in _ENTRIES]


def get_experiment(experiment_id: str) -> ExperimentEntry:
    """Look up one experiment; raises with the valid ids listed."""
    if experiment_id not in REGISTRY:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; valid ids: {experiment_ids()}"
        )
    return REGISTRY[experiment_id]
