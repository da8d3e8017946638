"""Fig. 7 — Hamming-distance distribution of received chip sequences.

At high SNR the authentic waveform decodes with distance 0 while the
emulated waveform shows 4-8 chip errors per 32-chip sequence — inside
DSSS's tolerance (threshold 10), which is precisely why the attack
works.  The histogram over both classes is the figure.

``run`` is :data:`SPEC` bound to :func:`repro.experiments.sweep.run_sweep`
(config keys and engine options by keyword).  Two streams, original and
emulated, at RNG slots 0 and 1 with budget ``num_packets``; a trial row
is one reception's per-symbol Hamming distances.  ``adaptive`` stops
each stream once the mean distance per packet (:func:`extract`) reaches
its Welford-CI precision target.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import transmit_batch
from repro.experiments.defense_common import defense_context
from repro.experiments.sweep import (
    PointSpec,
    StreamSpec,
    SweepPlan,
    SweepReduction,
    SweepSpec,
    run_sweep,
)

MAX_DISTANCE = 10

#: Stream label -> context key of its prepared link, in RNG-slot order.
LINKS = (("original", "zigbee"), ("emulated", "emulated"))


def _hamming_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[Optional[Tuple[int, ...]]]:
    """Engine trial: each reception's chip Hamming distances, one per RNG.

    ``args`` is ``(link_key, snr_db)``.  A row is ``None`` when the
    reception lost synchronization.
    """
    link_key, snr_db = args
    packets = transmit_batch(
        context[link_key], context["receiver"], snr_db, rngs,
        channel_factory=context.get("channel_factory"), chips=(),
    )
    return [
        None if packet is None
        else tuple(packet.diagnostics.hamming_distances)
        for packet in packets
    ]


def extract(row: Optional[Sequence[int]]) -> Optional[float]:
    """A row's adaptive observation: its mean distance (``None`` if empty)."""
    if not row:
        return None
    return float(np.mean(row))


def _fingerprint(config: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "snr_db": float(config["snr_db"]),
        "num_packets": config["num_packets"],
    }


def _plan(config: Mapping[str, Any]) -> SweepPlan:
    streams = tuple(
        StreamSpec(
            key=label, rng_slot=slot, budget=config["num_packets"],
            trial=_hamming_trial, static_args=(link_key, config["snr_db"]),
            extract=extract,
        )
        for slot, (label, link_key) in enumerate(LINKS)
    )
    return SweepPlan(
        points=(PointSpec(key="histogram", streams=streams),), rng_slots=2
    )


def _columns(config: Mapping[str, Any], adaptive: bool) -> List[str]:
    return ["hamming_distance", "original_fraction", "emulated_fraction"]


def _rows(reduction: SweepReduction) -> None:
    histograms = {}
    for label, _ in LINKS:
        counts = np.zeros(MAX_DISTANCE + 1)
        for distances in reduction.outcomes[label].values:
            for distance in distances:
                counts[min(distance, MAX_DISTANCE)] += 1
        histograms[label] = counts / counts.sum() if counts.sum() else counts

    result = reduction.result
    for distance in range(MAX_DISTANCE + 1):
        result.add_row(
            hamming_distance=distance,
            original_fraction=float(histograms["original"][distance]),
            emulated_fraction=float(histograms["emulated"][distance]),
        )
    result.series["original"] = histograms["original"]
    result.series["emulated"] = histograms["emulated"]

    band = float(histograms["emulated"][2:10].sum())
    result.notes.append(
        f"original mass at distance 0: {histograms['original'][0]:.3f}; "
        f"emulated mass in the 2-9 error band: {band:.3f} (paper: 4-8 band)"
    )


SPEC = SweepSpec(
    experiment_id="fig7",
    title="Fig. 7: Hamming distance distribution comparison",
    defaults={"snr_db": 17.0, "num_packets": 10},
    fingerprint=_fingerprint,
    plan=_plan,
    context=defense_context,
    columns=_columns,
    rows=_rows,
)


run = partial(run_sweep, SPEC)
