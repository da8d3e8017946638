"""Fig. 10 — C42 versus SNR for original and emulated waveforms.

Authentic ZigBee's C42-hat approaches the theoretical -1 as SNR grows;
the emulated waveform's sits away from -1 and moves in the opposite
direction with SNR (the quantization/truncation offset dominates at high
SNR; noise masks it at low SNR).

``run`` is :data:`SPEC` bound to :func:`repro.experiments.sweep.run_sweep`
(config keys and engine options by keyword).  The streams are Table
IV's (see :func:`repro.experiments.defense_common.snr_class_plan`) with
the trial reporting the normalized cumulant instead of D_E^2; a row is
the per-class mean.  Fig. 11 is the same sweep over C40
(:func:`cumulant_spec`).  ``adaptive`` stops each (SNR, class) stream at
its Welford-CI precision target, and rows gain ``trials_used``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.experiments.defense_common import (
    CLASSES,
    class_means,
    defense_context,
    snr_class_plan,
)
from repro.experiments.sweep import (
    SweepReduction,
    SweepSpec,
    resolve_detector,
    run_sweep,
)


def _fingerprint(config: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "waveforms_per_point": config["waveforms_per_point"],
        "snrs_db": [float(snr) for snr in config["snrs_db"]],
    }


def _columns(
    statistic: str, config: Mapping[str, Any], adaptive: bool
) -> List[str]:
    columns = ["snr_db", f"zigbee_{statistic}", f"emulated_{statistic}"]
    if adaptive:
        columns.append("trials_used")
    return columns


def _rows(statistic: str, reduction: SweepReduction) -> None:
    result = reduction.result
    series: Dict[str, List[float]] = {label: [] for label in CLASSES}
    for point in reduction.plan.points:
        means, trials_used = class_means(reduction, point)
        row = {"snr_db": point.meta["snr_db"]}
        for label in CLASSES:
            row[f"{label}_{statistic}"] = means[label]
            series[label].append(means[label])
        if reduction.adaptive:
            row["trials_used"] = trials_used
        result.add_row(**row)
    for label in CLASSES:
        result.series[label] = np.asarray(series[label])


def _notes(theoretical: float, config: Mapping[str, Any]) -> List[str]:
    return [
        f"theoretical QPSK value: {theoretical}; the authentic curve "
        "converges toward it with SNR while the emulated curve stays offset"
    ]


def cumulant_spec(
    experiment_id: str, figure: str, statistic: str, theoretical: float
) -> SweepSpec:
    """The normalized-cumulant-vs-SNR sweep of one figure.

    ``statistic`` is ``"c42"`` (Fig. 10) or ``"c40"`` (Fig. 11, the real
    part of C40-hat); ``theoretical`` is its noiseless QPSK value.
    """
    return SweepSpec(
        experiment_id=experiment_id,
        title=f"Fig. {figure}: {statistic.upper()} vs SNR",
        defaults={
            "snrs_db": (5, 7, 9, 11, 13, 15, 17),
            "waveforms_per_point": 10,
        },
        fingerprint=_fingerprint,
        plan=partial(
            snr_class_plan, chip_source="quadrature", statistic=statistic
        ),
        context=defense_context,
        columns=partial(_columns, statistic),
        rows=partial(_rows, statistic),
        detector=resolve_detector,
        notes=partial(_notes, theoretical),
    )


SPEC = cumulant_spec("fig10", "10", "c42", -1.0)


run = partial(run_sweep, SPEC)
