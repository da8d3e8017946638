"""Table II — emulation attack success rate under AWGN.

The paper transmits 1000 emulated waveforms at each SNR in 7-17 dB and
reports the fraction decoded by the ZigBee receiver (42.4 % at 7 dB
rising to 100 % at 17 dB).  The SNR axis matches ours under the
GNU-Radio-style simulated receiver (quadrature demodulation + naive
decimation); see ``hardware.gnuradio_simulation_receiver_config``.

Beyond the paper's table, ``screen_defense`` runs the cumulant detector
over every decoded emulated packet and reports the fraction flagged —
the "seek" half of the story on the same waveforms, which also exercises
the defense spans/counters when telemetry is enabled.

``run`` is :data:`SPEC` bound to :func:`repro.experiments.sweep.run_sweep`:
it takes the keys of ``SPEC.defaults`` and the engine options by keyword.
``include_authentic`` adds the authentic-waveform baseline column and
``screen_defense`` the ``detected_rate`` column.  Parallel, re-chunked,
and resumed runs stay bit-identical to the serial fixed-budget rows at
the same seed; ``adaptive`` stops each point at its Wilson-CI precision
target, adding ``trials_used`` and the CI bounds to each row.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.experiments.common import (
    packet_delivered,
    prepare_authentic,
    prepare_emulated,
    transmit_batch,
)
from repro.experiments.defense_common import screen_packets
from repro.experiments.sweep import (
    PointSpec,
    ScenarioSupport,
    StreamSpec,
    SweepPlan,
    SweepReduction,
    SweepSpec,
    resolve_channel_factory,
    resolve_detector,
    resolve_receiver,
    run_sweep,
)

PAPER_SUCCESS_RATES = {7: 0.424, 9: 0.692, 11: 0.874, 13: 0.933, 15: 0.972, 17: 1.0}


def _emulated_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[Tuple[bool, bool, bool]]:
    """Noisy emulated transmissions: (delivered, screened, detected) per RNG.

    Decoded packets with at least 64 PSDU chips are screened by the
    detector in one batched call; the quadrature chips it reads are
    computed only when a detector is set.
    """
    (snr,) = args
    prepared = context["emulated"]
    receiver = context["receiver"]
    detector = context["detector"]
    packets = transmit_batch(
        prepared, receiver, snr, rngs,
        channel_factory=context.get("channel_factory"),
        chips=() if detector is None else ("quadrature",),
    )
    detections = (
        [None] * len(packets) if detector is None else screen_packets(
            packets, detector, "quadrature", False,
            receiver.config.samples_per_chip, min_chips=64,
        )
    )
    return [
        (
            packet_delivered(prepared, packet),
            detection is not None,
            detection is not None and detection.is_attack,
        )
        for packet, detection in zip(packets, detections)
    ]


def _delivered_flag(row: Any) -> bool:
    """Adaptive-rate observation: delivered, with skipped rows failing."""
    return bool(row is not None and row[0])


def _authentic_flag(row: Any) -> bool:
    """Adaptive-rate observation for the authentic delivery flag."""
    return bool(row)


def _authentic_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[bool]:
    """Noisy authentic transmissions: one delivery flag per RNG."""
    (snr,) = args
    prepared = context["authentic"]
    packets = transmit_batch(
        prepared, context["receiver"], snr, rngs,
        channel_factory=context.get("channel_factory"), chips=(),
    )
    return [packet_delivered(prepared, packet) for packet in packets]


def _fingerprint(config: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "trials": config["trials"],
        "snrs_db": [float(snr) for snr in config["snrs_db"]],
        "include_authentic": config["include_authentic"],
        "screen_defense": config["screen_defense"],
    }


def _plan(config: Mapping[str, Any]) -> SweepPlan:
    snrs = list(config["snrs_db"])
    trials = config["trials"]
    points = []
    for i, snr in enumerate(snrs):
        key = f"snr{snr:g}"
        streams = [StreamSpec(
            key=key, rng_slot=2 * i, budget=trials,
            trial=_emulated_trial,
            static_args=(snr,), kind="rate", extract=_delivered_flag,
        )]
        # The authentic baseline keeps its own slot even when disabled,
        # so the emulated stream's noise draws never move.
        if config["include_authentic"]:
            streams.append(StreamSpec(
                key=f"{key}.authentic", rng_slot=2 * i + 1, budget=trials,
                trial=_authentic_trial,
                static_args=(snr,), kind="rate", extract=_authentic_flag,
            ))
        points.append(PointSpec(
            key=key, streams=tuple(streams), meta={"snr_db": snr},
        ))
    return SweepPlan(points=tuple(points), rng_slots=2 * len(snrs))


def _context(
    config: Mapping[str, Any], base: np.random.Generator
) -> Dict[str, Any]:
    # Seed the emulation (filler subcarriers) from the same base — drawn
    # after the noise streams — so a fixed seed fixes the whole run.
    return {
        "receiver": resolve_receiver(config, "gnuradio"),
        "emulated": prepare_emulated(rng=base),
        "authentic": prepare_authentic(),
        "channel_factory": resolve_channel_factory(config),
    }


def _detector(config: Mapping[str, Any]) -> Optional[Any]:
    return resolve_detector(config) if config["screen_defense"] else None


def _columns(config: Mapping[str, Any], adaptive: bool) -> List[str]:
    columns = ["snr_db", "success_rate", "paper_success_rate"]
    if config["include_authentic"]:
        columns.append("authentic_success_rate")
    if config["screen_defense"]:
        columns.append("detected_rate")
    if adaptive:
        columns.extend(["trials_used", "ci_low", "ci_high"])
    return columns


def _rows(reduction: SweepReduction) -> None:
    config = reduction.config
    for point in reduction.plan.points:
        snr = point.meta["snr_db"]
        outcome = reduction.outcomes[point.key]
        # A rate estimator counts every trial, so at trials_used ==
        # trials its estimate is the fixed sum(delivered) / trials.
        row: Dict[str, Any] = {
            "snr_db": snr,
            "success_rate": outcome.estimate,
            "paper_success_rate": PAPER_SUCCESS_RATES.get(
                int(snr), float("nan")
            ),
        }
        if config["screen_defense"]:
            screened_rows = outcome.values
            screened = sum(was_screened for _, was_screened, _ in screened_rows)
            detections = sum(detected for _, _, detected in screened_rows)
            row["detected_rate"] = (
                detections / screened if screened else float("nan")
            )
        if config["include_authentic"]:
            row["authentic_success_rate"] = (
                reduction.outcomes[f"{point.key}.authentic"].estimate
            )
        if reduction.adaptive:
            row.update(
                trials_used=outcome.trials_used,
                ci_low=outcome.ci_low,
                ci_high=outcome.ci_high,
            )
        reduction.result.add_row(**row)


def _notes(config: Mapping[str, Any]) -> List[str]:
    return [
        "receiver: GNU-Radio-style profile (quadrature demod, naive "
        "decimation) matching the paper's simulation SNR axis"
    ]


SPEC = SweepSpec(
    experiment_id="table2",
    title="Table II: emulation attack performance under AWGN",
    defaults={
        "snrs_db": (7, 9, 11, 13, 15, 17),
        "trials": 100,
        "include_authentic": True,
        "screen_defense": True,
    },
    fingerprint=_fingerprint,
    plan=_plan,
    context=_context,
    columns=_columns,
    rows=_rows,
    detector=_detector,
    notes=_notes,
    scenario=ScenarioSupport(
        axes=("snrs_db", "trials", "include_authentic", "screen_defense"),
        channel="snr",
        receiver=True,
        detector=True,
    ),
)


run = partial(run_sweep, SPEC)
