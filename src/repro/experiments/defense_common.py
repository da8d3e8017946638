"""Shared plumbing for the defense experiments (Tables IV-V, Figs. 10-12).

The defense taps the receiver's chip-rate soft samples over the PSDU.
Experiments default to the quadrature (frequency-discriminator) samples —
the signal GNU Radio's receiver exposes and by far the more sensitive
probe of the attack's cyclic-prefix discontinuities; ``chip_source``
switches to the coherent matched-filter samples for ablations.

The sweep experiments (Tables IV-V, Fig. 12) declare these trials in
their :class:`repro.experiments.sweep.SweepSpec` plans; this module
holds only the trial functions and pure reductions, with no engine,
checkpoint, or adaptive wiring of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.defense.detector import CumulantDetector, DetectionResult
from repro.experiments.common import PreparedLink, transmit_batch
from repro.experiments.engine import EngineSession
from repro.utils.rng import RngLike
from repro.zigbee.receiver import (
    CHIP_SOURCES,
    ReceivedPacket,
    ReceiverConfig,
    ZigBeeReceiver,
)


def defense_receiver() -> ZigBeeReceiver:
    """The receiver profile used by all defense experiments."""
    return ZigBeeReceiver(ReceiverConfig(demodulation="matched_filter"))


def extract_chips(packet, chip_source: str) -> np.ndarray:
    """PSDU chip samples of the requested kind from one reception."""
    if chip_source == "quadrature":
        return packet.diagnostics.psdu_quadrature_soft_chips
    if chip_source == "matched_filter":
        return packet.diagnostics.psdu_soft_chips
    raise ValueError(f"unknown chip source {chip_source!r}")


@dataclass
class StatisticSample:
    """One defense observation: the statistic and its provenance."""

    distance_squared: float
    detection: DetectionResult
    snr_db: Optional[float]


def matched_filter_chip_noise_variance(
    sample_noise_variance: float, samples_per_chip: int = 2
) -> float:
    """Noise power per matched-filter soft chip given per-sample noise.

    The soft chip is ``sum(Re(r) p) / E_p`` over one pulse, so complex
    sample noise of variance ``sigma^2`` contributes ``sigma^2 / (2 E_p)``.
    """
    from repro.zigbee.halfsine import pulse_energy

    return sample_noise_variance / (2.0 * pulse_energy(samples_per_chip))


def chip_noise_variance_for(
    packet, chip_source: str, samples_per_chip: int = 2
) -> Optional[float]:
    """Chip-domain noise variance from a reception's noise-floor estimate.

    Only meaningful for the (linear) matched-filter source; the quadrature
    discriminator is non-linear in the noise, so no subtraction applies.
    """
    sample_variance = packet.diagnostics.noise_variance
    if sample_variance is None or chip_source != "matched_filter":
        return None
    return matched_filter_chip_noise_variance(sample_variance, samples_per_chip)


def statistic_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[Optional[StatisticSample]]:
    """Engine trial: noisy receptions screened by the detector, one per RNG.

    ``args`` is ``(link_key, chip_source, noise_corrected, snr_db)``;
    ``context`` must map ``link_key`` to a :class:`PreparedLink` and hold
    ``"receiver"`` and ``"detector"``.  Receptions go through the
    receiver's batched chain, computing only the ``chip_source`` tap
    beyond what the receiver decodes from, and all decoded packets are
    screened in one :meth:`CumulantDetector.statistic_batch` call.  A
    row is ``None`` when its reception never reaches the defense (sync
    loss, decode failure, or too few chips) — the paper's pipeline drops
    those too.
    """
    link_key, chip_source, noise_corrected, snr_db = args
    prepared = context[link_key]
    rx = context["receiver"]
    packets = transmit_batch(
        prepared, rx, snr_db, rngs,
        channel_factory=context.get("channel_factory"),
        chips=(chip_source,),
    )
    detections = screen_packets(
        packets, context["detector"], chip_source, noise_corrected,
        rx.config.samples_per_chip,
    )
    return [
        None if detection is None else StatisticSample(
            distance_squared=detection.distance_squared,
            detection=detection,
            snr_db=snr_db,
        )
        for detection in detections
    ]


def distance_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[Optional[float]]:
    """:func:`statistic_trial` reduced to its D_E^2, one per RNG.

    The sweep drivers checkpoint raw trial rows, so their trials return
    plain floats (``None`` when the reception never reached the defense).
    """
    return [
        None if sample is None else float(sample.distance_squared)
        for sample in statistic_trial(context, args, rngs)
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
        chips = extract_chips(packet, chip_source)
        if chips.size < min_chips:
            continue
        eligible.append(index)
        chips_rows.append(chips)
        variances.append(
            chip_noise_variance_for(packet, chip_source, samples_per_chip)
            if noise_corrected
            else None
        )
    if eligible:
        detections = detector.statistic_batch(chips_rows, variances)
        for index, detection in zip(eligible, detections):
            rows[index] = detection
    return rows


def collect_statistics(
    prepared: Optional[PreparedLink],
    detector: Optional[CumulantDetector],
    snr_db: Optional[float],
    count: int,
    rng: RngLike = None,
    receiver: Optional[ZigBeeReceiver] = None,
    chip_source: str = "quadrature",
    noise_corrected: bool = False,
    session: Optional[EngineSession] = None,
    link_key: str = "link",
) -> List[StatisticSample]:
    """Gather D_E^2 over ``count`` independent noisy receptions.

    Receptions that fail to synchronize or decode are skipped (they never
    reach the defense in the paper's pipeline either).

    Args:
        noise_corrected: apply the paper's noise-variance subtraction
            using the receiver's per-packet noise-floor estimate
            (matched-filter chip source only).
        session: an open :class:`EngineSession` whose context already
            holds the link(s), receiver, and detector; trials then run on
            the engine (possibly in worker processes) and ``prepared`` /
            ``detector`` / ``receiver`` are ignored.
        link_key: which context entry carries the link under ``session``.
    """
    from repro.experiments.sweep import standalone_session

    if chip_source not in CHIP_SOURCES:
        raise ValueError(f"chip_source must be one of {CHIP_SOURCES}")
    static_args = (link_key, chip_source, noise_corrected, snr_db)
    if session is None:
        context = {
            link_key: prepared,
            "receiver": receiver or defense_receiver(),
            "detector": detector,
        }
        session = standalone_session(context)
    samples = session.run(
        statistic_trial, count, rng=rng, static_args=static_args
    )
    return [sample for sample in samples if sample is not None]


def mean_distance_squared(samples: Sequence[StatisticSample]) -> float:
    """Average D_E^2 over a sample set (paper's Tables IV and V)."""
    if not samples:
        return float("nan")
    return float(np.mean([s.distance_squared for s in samples]))


def mean_or_nan(values: Sequence[float]) -> float:
    """Average of a value list; NaN for an empty point."""
    if not len(values):
        return float("nan")
    return float(np.mean(values))
