"""Shared plumbing for the defense experiments (Tables IV-V, Figs. 7, 10-12).

The defense taps the receiver's chip-rate soft samples over the PSDU.
Experiments default to the quadrature (frequency-discriminator) samples —
the signal GNU Radio's receiver exposes and by far the more sensitive
probe of the attack's cyclic-prefix discontinuities; ``chip_source``
switches to the coherent matched-filter samples for ablations.

The sweep experiments (Table IV, Figs. 7, 10-12) declare these trials,
plans and contexts in their :class:`repro.experiments.sweep.SweepSpec`;
this module holds only those declarations and pure reductions, with no
engine, checkpoint, or adaptive wiring of its own.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.defense.detector import CumulantDetector, DetectionResult
from repro.errors import ConfigurationError
from repro.experiments.common import (
    prepare_authentic,
    prepare_emulated,
    transmit_batch,
)
from repro.experiments.sweep import (
    PointSpec,
    StreamSpec,
    SweepPlan,
    SweepReduction,
    resolve_channel_factory,
    resolve_receiver,
)
from repro.zigbee.receiver import ReceivedPacket, ReceiverConfig, ZigBeeReceiver

#: The two waveform classes of the SNR-axis defense sweeps, in RNG-slot
#: order: context keys of the authentic and emulated prepared links.
CLASSES = ("zigbee", "emulated")


def defense_receiver() -> ZigBeeReceiver:
    """The receiver profile used by all defense experiments."""
    return ZigBeeReceiver(ReceiverConfig(demodulation="matched_filter"))


def defense_context(
    config: Mapping[str, Any], base: np.random.Generator
) -> Dict[str, Any]:
    """Engine context of the SNR-axis defense sweeps.

    Both prepared links (keyed by :data:`CLASSES`), the defense receiver
    (or the scenario's profile) and the scenario channel factory
    (``None`` for plain AWGN).
    """
    return {
        "zigbee": prepare_authentic(),
        "emulated": prepare_emulated(rng=base),
        "receiver": resolve_receiver(config, "defense"),
        "channel_factory": resolve_channel_factory(config),
    }


def snr_class_plan(
    config: Mapping[str, Any], chip_source: str, statistic: str
) -> SweepPlan:
    """Table IV's layout: per SNR point, one stream per class.

    Point ``i`` holds a ``snr<snr>.<class>`` stream per :data:`CLASSES`
    entry ``j`` at RNG slot ``2 * i + j`` with budget
    ``waveforms_per_point``; each is a :func:`statistic_trial`
    reporting ``statistic`` on the ``chip_source`` tap.
    """
    snrs = list(config["snrs_db"])
    points = []
    for i, snr in enumerate(snrs):
        streams = tuple(
            StreamSpec(
                key=f"snr{snr:g}.{label}", rng_slot=2 * i + j,
                budget=config["waveforms_per_point"], trial=statistic_trial,
                static_args=(label, chip_source, False, snr, statistic),
            )
            for j, label in enumerate(CLASSES)
        )
        points.append(PointSpec(
            key=f"snr{snr:g}", streams=streams, meta={"snr_db": snr},
        ))
    return SweepPlan(points=tuple(points), rng_slots=2 * len(snrs))


def class_means(
    reduction: SweepReduction, point: PointSpec
) -> Tuple[Dict[str, float], int]:
    """Per-class mean of one :func:`snr_class_plan` point, and its trials."""
    outcomes = [reduction.outcomes[f"{point.key}.{label}"] for label in CLASSES]
    means = {
        label: mean_or_nan(outcome.values)
        for label, outcome in zip(CLASSES, outcomes)
    }
    return means, sum(outcome.trials_used for outcome in outcomes)


def _statistic_value(detection: DetectionResult, statistic: str) -> float:
    if statistic == "de2":
        return float(detection.distance_squared)
    if statistic == "c42":
        return float(detection.cumulants.c42_hat)
    if statistic == "c40":
        return float(np.real(detection.cumulants.c40_hat))
    raise ConfigurationError(
        f"statistic must be 'de2', 'c42' or 'c40', got {statistic!r}"
    )


def statistic_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[Optional[float]]:
    """Engine trial: noisy receptions screened by the detector, one per RNG.

    ``args`` is ``(link_key, chip_source, noise_corrected, snr_db,
    statistic)``, where ``statistic`` picks what a row reports: the
    detector's D_E^2 (``"de2"``), its normalized C42 (``"c42"``), or the
    real part of its normalized C40 (``"c40"``).  ``context`` must map
    ``link_key`` to a :class:`PreparedLink` and hold ``"receiver"`` and
    ``"detector"``.  Receptions go through the receiver's batched chain,
    computing only the ``chip_source`` tap beyond what the receiver
    decodes from, and all decoded packets are screened in one
    :meth:`CumulantDetector.statistic_batch` call.  A row is the
    statistic as a plain float, so it survives a checkpoint exactly, or
    ``None`` when its reception never reaches the defense (sync loss,
    decode failure, or too few chips) — the paper's pipeline drops
    those too.
    """
    link_key, chip_source, noise_corrected, snr_db, statistic = args
    rx = context["receiver"]
    packets = transmit_batch(
        context[link_key], rx, snr_db, rngs,
        channel_factory=context.get("channel_factory"),
        chips=(chip_source,),
    )
    detections = screen_packets(
        packets, context["detector"], chip_source, noise_corrected,
        rx.config.samples_per_chip,
    )
    return [
        None if detection is None else _statistic_value(detection, statistic)
        for detection in detections
    ]


def screen_packets(
    packets: Sequence[Optional[ReceivedPacket]],
    detector: CumulantDetector,
    chip_source: str,
    noise_corrected: bool,
    samples_per_chip: int,
    min_chips: int = 8,
) -> List[Optional[DetectionResult]]:
    """The detector's verdict on each reception that reaches the defense.

    A row is ``None`` when its reception never reaches the defense (sync
    loss, decode failure, or fewer than ``min_chips`` PSDU chips); every
    other row is screened in one :meth:`CumulantDetector.statistic_batch`
    call, with the receiver's noise-floor correction when
    ``noise_corrected``.  The receptions must have been made with
    ``chips=(chip_source,)`` (or a superset) unless the receiver decodes
    from ``chip_source`` anyway.
    """
    rows: List[Optional[DetectionResult]] = [None] * len(packets)
    eligible: List[int] = []
    chips_rows: List[np.ndarray] = []
    variances: List[Optional[float]] = []
    for index, packet in enumerate(packets):
        if packet is None or not packet.decoded:
            continue
        chips = packet.diagnostics.psdu_chips(chip_source)
        if chips.size < min_chips:
            continue
        eligible.append(index)
        chips_rows.append(chips)
        variances.append(
            packet.diagnostics.chip_noise_variance(
                chip_source, samples_per_chip
            )
            if noise_corrected
            else None
        )
    if eligible:
        detections = detector.statistic_batch(chips_rows, variances)
        for index, detection in zip(eligible, detections):
            rows[index] = detection
    return rows


def mean_or_nan(values: Sequence[float]) -> float:
    """Average of a value list; NaN for an empty point."""
    if not len(values):
        return float("nan")
    return float(np.mean(values))
