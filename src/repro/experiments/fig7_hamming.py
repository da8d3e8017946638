"""Fig. 7 — Hamming-distance distribution of received chip sequences.

At high SNR the authentic waveform decodes with distance 0 while the
emulated waveform shows 4-8 chip errors per 32-chip sequence — inside
DSSS's tolerance (threshold 10), which is precisely why the attack
works.  The histogram over both classes is the figure.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.experiments.common import (
    ExperimentResult,
    prepare_authentic,
    prepare_emulated,
    transmit_batch,
)
from repro.experiments.defense_common import defense_receiver
from repro.utils.rng import RngLike, spawn_rngs

MAX_DISTANCE = 10


def run(
    snr_db: float = 17.0,
    num_packets: int = 10,
    rng: RngLike = None,
) -> ExperimentResult:
    """Histogram chip Hamming distances for both waveform classes."""
    receiver = defense_receiver()
    authentic = prepare_authentic()
    emulated = prepare_emulated()

    histograms = {}
    rngs = spawn_rngs(rng, 2)
    for label, prepared, generator in (
        ("original", authentic, rngs[0]),
        ("emulated", emulated, rngs[1]),
    ):
        distances = []
        packets = transmit_batch(
            prepared, receiver, snr_db, spawn_rngs(generator, num_packets)
        )
        for packet in packets:
            if packet is not None:
                distances.extend(packet.diagnostics.hamming_distances)
        counts = np.zeros(MAX_DISTANCE + 1)
        for distance in distances:
            counts[min(distance, MAX_DISTANCE)] += 1
        histograms[label] = counts / counts.sum() if counts.sum() else counts

    result = ExperimentResult(
        experiment_id="fig7",
        title="Fig. 7: Hamming distance distribution comparison",
        columns=["hamming_distance", "original_fraction", "emulated_fraction"],
    )
    for distance in range(MAX_DISTANCE + 1):
        result.add_row(
            hamming_distance=distance,
            original_fraction=float(histograms["original"][distance]),
            emulated_fraction=float(histograms["emulated"][distance]),
        )
    result.series["original"] = histograms["original"]
    result.series["emulated"] = histograms["emulated"]

    emulated_mass = histograms["emulated"]
    band = float(emulated_mass[2:10].sum())
    result.notes.append(
        f"original mass at distance 0: {histograms['original'][0]:.3f}; "
        f"emulated mass in the 2-9 error band: {band:.3f} (paper: 4-8 band)"
    )
    return result
