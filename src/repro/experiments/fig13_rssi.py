"""Fig. 13's embedded table — RSSI at the CC26x2R1 versus distance.

The paper's experimental-setting figure includes a table of received
signal strength indication readings over the 1-8 m range.  We reproduce
it two ways: analytically from the link budget, and empirically by
measuring the 8-symbol RSSI window on waveforms propagated through the
real-environment channel.  Each measured packet is one engine trial, so
``workers`` parallelizes the sweep deterministically.

``run`` is :data:`SPEC` bound to :func:`repro.experiments.sweep.run_sweep`
(config keys and engine options by keyword).  ``adaptive`` stops each
distance point once the measured-RSSI Welford CI reaches
``rel_precision`` relative half-width, adding ``trials_used`` to each
row.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro.channel.pathloss import LinkBudget
from repro.experiments.common import prepare_authentic
from repro.experiments.sweep import (
    PointSpec,
    ScenarioSupport,
    StreamSpec,
    SweepPlan,
    SweepReduction,
    SweepSpec,
    resolve_environment,
    run_sweep,
)
from repro.hardware.rssi import RssiEstimator


def _rssi_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[float]:
    """Propagated packets' RSSI readings re-anchored at the budget mean."""
    distance, mean_rx_dbm = args
    readings = []
    for rng in rngs:
        channel = context["env"].channel_at(distance, rng=rng)
        received = channel.apply(context["prepared"].on_air)
        # Measure the fading-induced deviation around unit power over
        # the RSSI window inside the frame, then re-anchor.
        relative_db = context["estimator"].estimate(received, start=600)
        readings.append(mean_rx_dbm + relative_db)
    return readings


def _fingerprint(config: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "packets_per_point": config["packets_per_point"],
        "distances_m": [float(d) for d in config["distances_m"]],
    }


def _mean_budget(config: Mapping[str, Any]) -> LinkBudget:
    # Calibration and the analytic column use the shadowing-free budget
    # mean; per-trial channels still draw shadowing from their streams.
    return replace(
        resolve_environment(config, rng=0).budget, shadowing_sigma_db=0.0
    )


def _plan(config: Mapping[str, Any]) -> SweepPlan:
    distances = list(config["distances_m"])
    per_point = config["packets_per_point"]
    budget = _mean_budget(config)
    points = []
    for i, distance in enumerate(distances):
        key = f"d{distance:g}"
        mean_rx_dbm = float(budget.received_power_dbm(distance))
        points.append(PointSpec(
            key=key,
            streams=(StreamSpec(
                key=key, rng_slot=i, budget=per_point, trial=_rssi_trial,
                static_args=(distance, mean_rx_dbm),
            ),),
            meta={"distance_m": distance, "mean_rx_dbm": mean_rx_dbm},
        ))
    return SweepPlan(points=tuple(points), rng_slots=len(distances))


def _context(
    config: Mapping[str, Any], base: np.random.Generator
) -> Dict[str, Any]:
    # Calibrate the estimator so unit sample power corresponds to the
    # transmit power at the reference distance: the channel pipeline
    # normalizes power, so we measure *relative* fading and re-anchor at
    # the budget's mean RX power.
    return {
        "env": resolve_environment(config, rng=0),
        "prepared": prepare_authentic(),
        "estimator": RssiEstimator(reference_dbm=0.0),
    }


def _columns(config: Mapping[str, Any], adaptive: bool) -> List[str]:
    columns = ["distance_m", "budget_rssi_dbm", "measured_rssi_dbm",
               "fading_spread_db"]
    if adaptive:
        columns.append("trials_used")
    return columns


def _rows(reduction: SweepReduction) -> None:
    estimator = RssiEstimator(reference_dbm=0.0)
    for point in reduction.plan.points:
        meta = point.meta
        outcome = reduction.outcomes[point.key]
        readings = outcome.values
        row = {
            "distance_m": meta["distance_m"],
            "budget_rssi_dbm": estimator.estimate_from_power_dbm(
                meta["mean_rx_dbm"]
            ),
            "measured_rssi_dbm": float(np.mean(readings)),
            "fading_spread_db": float(np.max(readings) - np.min(readings)),
        }
        if reduction.adaptive:
            row["trials_used"] = outcome.trials_used
        reduction.result.add_row(**row)


def _notes(config: Mapping[str, Any]) -> List[str]:
    return [
        "measured = link-budget mean plus per-packet fading/noise deviation "
        "over the standard 8-symbol RSSI window"
    ]


SPEC = SweepSpec(
    experiment_id="fig13",
    title="Fig. 13 (table): RSSI vs distance at the ZigBee receiver",
    defaults={
        "distances_m": (1, 2, 3, 4, 5, 6, 7, 8),
        "packets_per_point": 5,
    },
    fingerprint=_fingerprint,
    plan=_plan,
    context=_context,
    columns=_columns,
    rows=_rows,
    notes=_notes,
    scenario=ScenarioSupport(
        axes=("distances_m", "packets_per_point"),
        channel="environment",
    ),
)


run = partial(run_sweep, SPEC)
