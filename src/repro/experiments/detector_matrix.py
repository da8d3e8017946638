"""Detector-variant comparison matrix (extension).

The package offers several defense operating points: the feature can be
``Re C40`` or ``|C40|``, the chip tap can be the quadrature discriminator
or the matched filter, and the matched filter can apply the noise-
variance subtraction.  This experiment evaluates each variant across
AWGN SNRs *and* the real environment, reporting the class gap and the
margin a single threshold would enjoy — the table an operator needs to
choose a deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.environment import RealEnvironment
from repro.defense.detector import CumulantDetector
from repro.experiments.common import (
    ExperimentResult,
    PreparedLink,
    prepare_authentic,
    prepare_emulated,
)
from repro.experiments.defense_common import defense_receiver, screen_packets
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


@dataclass(frozen=True)
class DetectorVariant:
    """One deployable defense configuration."""

    name: str
    use_abs_c40: bool
    chip_source: str
    noise_corrected: bool


STANDARD_VARIANTS: Tuple[DetectorVariant, ...] = (
    DetectorVariant("quad/ReC40", False, "quadrature", False),
    DetectorVariant("quad/|C40|", True, "quadrature", False),
    DetectorVariant("mf/|C40|", True, "matched_filter", False),
    DetectorVariant("mf/|C40|/nc", True, "matched_filter", True),
)


def _statistics(
    variant: DetectorVariant,
    prepared: PreparedLink,
    receiver,
    channel_factory,
    count: int,
    rng: RngLike,
) -> List[float]:
    detector = CumulantDetector(use_abs_c40=variant.use_abs_c40)
    stacked = np.stack([
        channel_factory(generator).apply(prepared.on_air).samples
        for generator in spawn_rngs(rng, count)
    ])
    packets = receiver.receive_batch(
        stacked, prepared.on_air.sample_rate_hz, chips=(variant.chip_source,)
    )
    detections = screen_packets(
        packets, detector, variant.chip_source, variant.noise_corrected,
        receiver.config.samples_per_chip, min_chips=64,
    )
    return [
        detection.distance_squared
        for detection in detections
        if detection is not None
    ]


def run(
    snrs_db: Sequence[float] = (7.0, 17.0),
    real_distance_m: float = 4.0,
    waveforms_per_cell: int = 10,
    variants: Sequence[DetectorVariant] = STANDARD_VARIANTS,
    rng: RngLike = None,
) -> ExperimentResult:
    """Evaluate every variant in every scenario.

    The reported *margin* is ``min(H1) / max(H0)`` pooled over all
    scenarios of that variant — above 1 means a single threshold
    classifies everything; the larger, the more headroom.
    """
    from repro.channel.awgn import AwgnChannel

    base_rng = ensure_rng(rng)
    receiver = defense_receiver()
    authentic = prepare_authentic()
    emulated = prepare_emulated()
    environment = RealEnvironment(rng=base_rng)

    scenarios: Dict[str, object] = {
        f"awgn {snr:.0f}dB": (
            lambda generator, snr=snr: AwgnChannel(snr, rng=generator)
        )
        for snr in snrs_db
    }
    scenarios[f"real {real_distance_m:.0f}m"] = (
        lambda generator: environment.channel_at(real_distance_m)
    )

    result = ExperimentResult(
        experiment_id="detector_matrix",
        title="Extension: defense variant comparison matrix",
        columns=["variant", "scenario", "zigbee_max", "emulated_min", "separates"],
    )
    margins: Dict[str, float] = {}
    for variant in variants:
        pooled_h0: List[float] = []
        pooled_h1: List[float] = []
        for scenario_name, factory in scenarios.items():
            h0 = _statistics(
                variant, authentic, receiver, factory, waveforms_per_cell,
                base_rng,
            )
            h1 = _statistics(
                variant, emulated, receiver, factory, waveforms_per_cell,
                base_rng,
            )
            if not h0 or not h1:
                continue
            pooled_h0.extend(h0)
            pooled_h1.extend(h1)
            result.add_row(
                variant=variant.name,
                scenario=scenario_name,
                zigbee_max=float(np.max(h0)),
                emulated_min=float(np.min(h1)),
                separates=bool(np.min(h1) > np.max(h0)),
            )
        if pooled_h0 and pooled_h1:
            margins[variant.name] = float(
                np.min(pooled_h1) / max(np.max(pooled_h0), 1e-12)
            )
    for name, margin in margins.items():
        result.notes.append(
            f"{name}: pooled one-threshold margin {margin:.2f}x"
            + (" (separates everywhere)" if margin > 1 else " (overlaps)")
        )
    result.series["margins"] = np.asarray(
        [margins.get(v.name, float("nan")) for v in variants]
    )
    return result
