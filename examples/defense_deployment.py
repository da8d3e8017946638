#!/usr/bin/env python3
"""Deploying the defense: calibrate a threshold, then screen live traffic.

Follows the paper's protocol (Sec. VII-B): the first half of the captured
waveforms trains the threshold Q, the second half is classified.  Mixed
authentic/emulated traffic at several SNRs is screened and a confusion
matrix is printed.

Run:  python examples/defense_deployment.py [--per-class 15]
"""

import argparse

import numpy as np

from repro.channel import AwgnChannel
from repro.defense import CumulantDetector, calibrate_threshold
from repro.experiments.common import (
    prepare_authentic,
    prepare_emulated,
    transmit_batch,
)
from repro.experiments.defense_common import defense_receiver
from repro.utils.rng import spawn_rngs


def gather(prepared, receiver, detector, snrs, count, rng):
    """Collect D_E^2 statistics over noisy receptions."""
    values = []
    rngs = spawn_rngs(rng, len(snrs) * count)
    for i, snr in enumerate(snrs):
        packets = transmit_batch(
            prepared, receiver, snr, rngs[i * count:(i + 1) * count]
        )
        for packet in packets:
            if packet is None or not packet.decoded:
                continue
            chips = packet.diagnostics.psdu_quadrature_soft_chips
            values.append(detector.statistic(chips).distance_squared)
    return values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-class", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    snrs = (7, 12, 17)
    receiver = defense_receiver()
    detector = CumulantDetector()
    authentic = prepare_authentic(b"telemetry")
    emulated = prepare_emulated(b"telemetry", rng=args.seed)

    # Phase 1: calibration.
    train_z = gather(authentic, receiver, detector, snrs,
                     args.per_class, rng=args.seed)
    train_e = gather(emulated, receiver, detector, snrs,
                     args.per_class, rng=args.seed + 1)
    threshold = calibrate_threshold(train_z, train_e)
    print(f"calibrated threshold Q = {threshold:.4f}")
    print(f"  training: zigbee D_E^2 in [{min(train_z):.5f}, {max(train_z):.5f}]")
    print(f"            emulated D_E^2 in [{min(train_e):.5f}, {max(train_e):.5f}]")

    # Phase 2: screening fresh traffic.
    test_z = gather(authentic, receiver, detector, snrs,
                    args.per_class, rng=args.seed + 2)
    test_e = gather(emulated, receiver, detector, snrs,
                    args.per_class, rng=args.seed + 3)
    false_alarms = sum(v >= threshold for v in test_z)
    misses = sum(v < threshold for v in test_e)

    print("\nconfusion matrix (rows = truth):")
    print(f"{'':>10} {'flag H0':>9} {'flag H1':>9}")
    print(f"{'zigbee':>10} {len(test_z) - false_alarms:>9} {false_alarms:>9}")
    print(f"{'attacker':>10} {misses:>9} {len(test_e) - misses:>9}")
    accuracy = 1 - (false_alarms + misses) / (len(test_z) + len(test_e))
    print(f"\naccuracy: {accuracy:.1%} over {len(test_z) + len(test_e)} packets "
          f"at SNRs {snrs} dB")


if __name__ == "__main__":
    main()
