"""Table IV — averaged squared Euclidean distance D_E^2 vs SNR.

The paper averages D_E^2 over 50 training waveforms per class at SNR 7,
12 and 17 dB and observes an order-of-magnitude gap (0.15/0.06/0.04 for
ZigBee vs 1.71/1.62/1.55 for emulated).  Our receiver substrate yields
smaller absolute values on both sides, but the same monotone trends and
a gap wide enough for a single threshold.

``run`` is :data:`SPEC` bound to :func:`repro.experiments.sweep.run_sweep`
(config keys and engine options by keyword).  ``chip_source`` selects
the defense chip tap (see ``defense_common``).  ``adaptive`` stops each
(SNR, class) point at its mean-D_E^2 Welford-CI precision target, and
rows gain ``trials_used`` (summed over the two classes).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Mapping

from repro.experiments.defense_common import (
    class_means,
    defense_context,
    snr_class_plan,
)
from repro.experiments.sweep import (
    ScenarioSupport,
    SweepPlan,
    SweepReduction,
    SweepSpec,
    resolve_detector,
    run_sweep,
)

PAPER_TABLE4 = {
    7: (0.1546, 1.7140),
    12: (0.0642, 1.6238),
    17: (0.0421, 1.5536),
}


def _fingerprint(config: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "waveforms_per_point": config["waveforms_per_point"],
        "snrs_db": [float(snr) for snr in config["snrs_db"]],
        "chip_source": config["chip_source"],
    }


def _plan(config: Mapping[str, Any]) -> SweepPlan:
    return snr_class_plan(config, config["chip_source"], "de2")


def _columns(config: Mapping[str, Any], adaptive: bool) -> List[str]:
    columns = [
        "snr_db", "zigbee_de2", "emulated_de2",
        "paper_zigbee_de2", "paper_emulated_de2", "separation_factor",
    ]
    if adaptive:
        columns.append("trials_used")
    return columns


def _rows(reduction: SweepReduction) -> None:
    for point in reduction.plan.points:
        snr = point.meta["snr_db"]
        means, trials_used = class_means(reduction, point)
        paper = PAPER_TABLE4.get(int(snr), (float("nan"), float("nan")))
        row = {
            "snr_db": snr,
            "zigbee_de2": means["zigbee"],
            "emulated_de2": means["emulated"],
            "paper_zigbee_de2": paper[0],
            "paper_emulated_de2": paper[1],
            "separation_factor": (
                means["emulated"] / means["zigbee"]
                if means["zigbee"] else float("nan")
            ),
        }
        if reduction.adaptive:
            row["trials_used"] = trials_used
        reduction.result.add_row(**row)


def _notes(config: Mapping[str, Any]) -> List[str]:
    return [
        f"defense chip source: {config['chip_source']}; absolute D_E^2 is "
        "smaller than the paper's (cleaner receiver front end) but the "
        "class gap and trends reproduce"
    ]


SPEC = SweepSpec(
    experiment_id="table4",
    title="Table IV: averaged Euclidean distance square (D_E^2)",
    defaults={
        "snrs_db": (7, 12, 17),
        "waveforms_per_point": 50,
        "chip_source": "quadrature",
    },
    fingerprint=_fingerprint,
    plan=_plan,
    context=defense_context,
    columns=_columns,
    rows=_rows,
    detector=resolve_detector,
    notes=_notes,
    scenario=ScenarioSupport(
        axes=("snrs_db", "waveforms_per_point", "chip_source"),
        channel="snr",
        receiver=True,
        detector=True,
    ),
)


run = partial(run_sweep, SPEC)
