"""Kernel scaling probe: rows/s of the batched receive and defense kernels.

Each kernel is called on fixed generated inputs at batch 1, 32 and 512,
so the cost per call (which a batch of one pays in full) and the cost
per row (which large batches amortize) both show.  The inputs do not
depend on the workload seed: a noisy, time-aligned stack of authentic
frames at the default receiver's native rate.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, Dict, List

KERNELS = (
    "zigbee.sync", "zigbee.oqpsk_demodulate", "zigbee.despread",
    "defense.statistic",
)
BATCHES = (1, 32, 512)
#: Seed of the probe's own noise; fixed so every run sees the same rows.
PROBE_SEED = 20190707
PROBE_SNR_DB = 10.0
#: Minimum timed seconds and calls per (kernel, batch) point.
MIN_SECONDS = 0.15
MIN_CALLS = 3


def _probe_calls() -> Dict[str, Callable[[int], object]]:
    """``{kernel: call(batch)}`` over inputs built once at the largest batch."""
    import numpy as np

    from repro.defense.detector import CumulantDetector
    from repro.experiments.common import prepare_authentic
    from repro.zigbee.constants import CHIPS_PER_SYMBOL
    from repro.zigbee.oqpsk import OqpskDemodulator
    from repro.zigbee.receiver import ReceiverConfig, ZigBeeReceiver
    from repro.zigbee.spreading import DsssDespreader
    from repro.zigbee.synchronizer import Synchronizer

    config = ReceiverConfig()
    synchronizer = Synchronizer(samples_per_chip=config.samples_per_chip)
    demodulator = OqpskDemodulator(config.samples_per_chip)
    despreader = DsssDespreader(config.correlation_threshold)
    detector = CumulantDetector()

    receiver = ZigBeeReceiver(config)
    baseband = receiver.channelize(prepare_authentic().on_air).samples
    baseband = baseband / np.sqrt(np.mean(np.abs(baseband) ** 2))
    rng = np.random.default_rng(PROBE_SEED)
    scale = np.sqrt(10.0 ** (-PROBE_SNR_DB / 10.0) / 2.0)
    shape = (max(BATCHES), baseband.size)
    rows = baseband + scale * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    start = synchronizer.synchronize_batch(rows[:1])[0].start_index
    aligned = np.ascontiguousarray(rows[:, start:])
    capacity = demodulator.capacity(aligned.shape[1])
    num_chips = (capacity // CHIPS_PER_SYMBOL) * CHIPS_PER_SYMBOL
    soft, hard = demodulator.demodulate_batch(aligned, num_chips)
    return {
        "zigbee.sync": lambda b: synchronizer.synchronize_batch(rows[:b]),
        "zigbee.oqpsk_demodulate": lambda b: demodulator.demodulate_batch(
            aligned[:b], num_chips
        ),
        "zigbee.despread": lambda b: despreader.despread_arrays(hard[:b]),
        "defense.statistic": lambda b: detector.statistic_batch(list(soft[:b])),
    }


def _rows_per_second(call: Callable[[int], object], batch: int) -> float:
    """Rows per second of ``call(batch)``: batch over the median call time."""
    call(batch)  # first call fills lazy caches (FFT sizes, templates)
    durations: List[float] = []
    begun = time.perf_counter()
    while len(durations) < MIN_CALLS or time.perf_counter() - begun < MIN_SECONDS:
        start = time.perf_counter()
        call(batch)
        durations.append(time.perf_counter() - start)
    return batch / statistics.median(durations)


def measure() -> Dict[str, float]:
    """``{metric name: rows/s}`` for every kernel and batch size.

    A probe that fails (say, after an API change) reports 0 and a note on
    standard error rather than failing the benchmark run.
    """
    try:
        calls = _probe_calls()
    except Exception as error:  # noqa: BLE001 - reported, not fatal
        print(f"kernel probe inputs failed: {error!r}", file=sys.stderr)
        calls = {}
    metrics = {}
    for kernel in KERNELS:
        for batch in BATCHES:
            name = f"{kernel}.rows_per_s.b{batch}"
            metrics[name] = 0.0
            if kernel not in calls:
                continue
            try:
                metrics[name] = _rows_per_second(calls[kernel], batch)
            except Exception as error:  # noqa: BLE001 - reported, not fatal
                print(f"kernel probe {name} failed: {error!r}", file=sys.stderr)
    return metrics
