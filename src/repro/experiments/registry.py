"""Registry mapping paper artifact ids to experiment runners.

Each :class:`ExperimentEntry` carries declarative capability metadata —
which engine knobs the runner accepts (``workers``, ``checkpoint``,
``adaptive``, ...) and what its trial-count keyword is called — so the
CLI builds keyword arguments from declarations instead of probing
``inspect.signature``.  Sweep-backed experiments additionally expose
their :class:`repro.experiments.sweep.SweepSpec` for scenario runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional

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

#: Every capability token an entry may declare.  ``trials`` means the
#: runner takes a trial-count override (named by ``trials_param``);
#: ``checkpoint`` covers ``checkpoint_dir``/``resume``; ``adaptive``
#: covers ``adaptive``/``rel_precision``/``max_trials``; ``scenario``
#: means the entry's spec accepts scenario-file overrides.
CAPABILITIES = frozenset(
    {"trials", "workers", "chunk_size", "on_error", "checkpoint",
     "adaptive", "scenario"}
)

#: Capabilities shared by every sweep-backed experiment.
_SWEEP_CAPABILITIES = frozenset(
    {"trials", "workers", "chunk_size", "on_error", "checkpoint",
     "adaptive", "scenario"}
)


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproducible paper artifact.

    Attributes:
        experiment_id: registry key (``table2``, ``fig12``, ...).
        description: one-line summary shown by ``repro-experiments list``.
        run: the runner callable returning an :class:`ExperimentResult`.
        spec: the declarative sweep spec for sweep-backed experiments,
            ``None`` for direct runners.
        capabilities: declared engine-knob support (subset of
            :data:`CAPABILITIES`).
        trials_param: the runner's trial-count keyword (``trials``,
            ``waveforms_per_point``, ...), or ``None`` when the runner
            has no trial-count notion.
    """

    experiment_id: str
    description: str
    run: Callable[..., ExperimentResult]
    spec: Optional[Any] = None
    capabilities: FrozenSet[str] = frozenset()
    trials_param: Optional[str] = None

    def __post_init__(self) -> None:
        """Validate the declared metadata against the token catalogue."""
        unknown = self.capabilities - CAPABILITIES
        if unknown:
            raise ConfigurationError(
                f"{self.experiment_id}: unknown capabilities "
                f"{sorted(unknown)}; valid: {sorted(CAPABILITIES)}"
            )
        if ("trials" in self.capabilities) != (self.trials_param is not None):
            raise ConfigurationError(
                f"{self.experiment_id}: the 'trials' capability and "
                f"trials_param must be declared together"
            )
        if "scenario" in self.capabilities and self.spec is None:
            raise ConfigurationError(
                f"{self.experiment_id}: the 'scenario' capability "
                f"requires a sweep spec"
            )


_ENTRIES = [
    ExperimentEntry("table1", "FFT magnitudes and subcarrier selection",
                    table1_frequency_points.run,
                    capabilities=frozenset({"trials"}),
                    trials_param="num_waveforms"),
    ExperimentEntry("table2", "attack success rate vs SNR (AWGN)",
                    table2_attack_awgn.run,
                    spec=table2_attack_awgn.SPEC,
                    capabilities=_SWEEP_CAPABILITIES,
                    trials_param="trials"),
    ExperimentEntry("table3", "theoretical cumulants per constellation",
                    table3_theoretical_cumulants.run,
                    capabilities=frozenset({"trials"}),
                    trials_param="sample_count"),
    ExperimentEntry("table4", "averaged D_E^2 vs SNR",
                    table4_de2_snr.run,
                    spec=table4_de2_snr.SPEC,
                    capabilities=_SWEEP_CAPABILITIES,
                    trials_param="waveforms_per_point"),
    ExperimentEntry("table5", "averaged D_E^2 vs distance (real env)",
                    table5_de2_distance.run,
                    spec=table5_de2_distance.SPEC,
                    capabilities=_SWEEP_CAPABILITIES,
                    trials_param="waveforms_per_point"),
    ExperimentEntry("fig5", "original vs emulated waveform I/Q",
                    fig5_waveform_comparison.run),
    ExperimentEntry("fig6", "constellation diagrams, AWGN vs real",
                    fig6_constellation.run),
    ExperimentEntry("fig7", "Hamming distance distributions",
                    fig7_hamming.run,
                    capabilities=frozenset({"trials"}),
                    trials_param="num_packets"),
    ExperimentEntry("fig8", "cyclic-prefix baseline failure",
                    fig8_cp_repetition.run),
    ExperimentEntry("fig9", "phase/chip baseline failures",
                    fig9_possible_strategies.run),
    ExperimentEntry("fig10", "C42 vs SNR", fig10_c42.run,
                    capabilities=frozenset({"trials"}),
                    trials_param="waveforms_per_point"),
    ExperimentEntry("fig11", "C40 vs SNR", fig11_c40.run,
                    capabilities=frozenset({"trials"}),
                    trials_param="waveforms_per_point"),
    ExperimentEntry("fig12", "calibrated threshold defense test",
                    fig12_defense.run,
                    spec=fig12_defense.SPEC,
                    capabilities=_SWEEP_CAPABILITIES - {"trials"}),
    ExperimentEntry("fig13", "RSSI vs distance (table in Fig. 13)",
                    fig13_rssi.run,
                    spec=fig13_rssi.SPEC,
                    capabilities=_SWEEP_CAPABILITIES,
                    trials_param="packets_per_point"),
    ExperimentEntry("fig14", "error rates vs distance per receiver",
                    fig14_error_rates.run,
                    spec=fig14_error_rates.SPEC,
                    capabilities=_SWEEP_CAPABILITIES,
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
