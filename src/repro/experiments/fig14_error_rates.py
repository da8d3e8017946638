"""Fig. 14 — packet and symbol error rates versus distance, per receiver.

The paper sends the 00000-00099 corpus from the ZigBee transmitter and
the WiFi attacker at 1-8 m and measures error rates at a USRP receiver
(Fig. 14a — fails beyond ~6-7 m) and at the CC26x2R1 (Fig. 14b — still
below 0.1 at 8 m).  The qualitative claims to reproduce:

* error rates grow with distance;
* the emulated waveform's error rates exceed the authentic waveform's;
* packet error rate >= symbol error rate;
* the commodity receiver profile beats the USRP profile at range.

``run`` is :data:`SPEC` bound to :func:`repro.experiments.sweep.run_sweep`
(config keys and engine options by keyword).  Each transmission is one
engine trial with its own RNG stream, so the (distance x receiver x
waveform) grid parallelizes across ``workers`` with results
bit-identical to the serial run at the same seed.  ``adaptive`` stops
each cell once its packet-error-rate Wilson CI reaches
``rel_precision`` relative half-width, adding ``trials_used`` and the
CI bounds to each row.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.channel.pathloss import LinkBudget
from repro.experiments.common import (
    packet_delivered,
    prepare_authentic,
    prepare_emulated,
    propagate_batch,
)
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
from repro.hardware.cc26x2 import cc26x2_receiver_config
from repro.hardware.rssi import RssiEstimator
from repro.hardware.usrp import usrp_receiver_config
from repro.link.metrics import symbol_errors
from repro.zigbee.receiver import ZigBeeReceiver


def _link_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[Optional[Tuple[int, bool]]]:
    """Propagated receptions, one per RNG; ``None`` marks a sync loss.

    A row is ``(symbol_errors, delivered)``: the data symbols decoded
    wrong against the sent payload (``sent.symbols[12:]``), and the
    paper's packet-success flag.
    """
    link_key, rx_name, distance, loss_db = args
    prepared = context[link_key]
    truth = prepared.sent.symbols[12:]
    packets = context["receivers"][rx_name].receive_batch(
        propagate_batch(
            context["env"], prepared, distance, rngs, extra_loss_db=loss_db
        ),
        prepared.on_air.sample_rate_hz,
        chips=(),
    )
    return [
        None if packet is None else (
            symbol_errors(truth, packet.diagnostics.psdu_symbols),
            packet_delivered(prepared, packet),
        )
        for packet in packets
    ]


def _packet_error_flag(row: Any) -> bool:
    """Adaptive-rate observation: packet errored (sync losses count)."""
    return bool(row is None or not row[1])


def _fingerprint(config: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "trials": config["trials"],
        "distances_m": [float(d) for d in config["distances_m"]],
    }


def _plan(config: Mapping[str, Any]) -> SweepPlan:
    distances = list(config["distances_m"])
    trials = config["trials"]
    losses = {
        "usrp": usrp_receiver_config().implementation_loss_db,
        "cc26x2": cc26x2_receiver_config().implementation_loss_db,
    }
    cells = [
        (distance, rx_name, label)
        for distance in distances
        for rx_name in ("usrp", "cc26x2")
        for label in ("original", "emulated")
    ]
    points = []
    for index, (distance, rx_name, label) in enumerate(cells):
        key = f"d{distance:g}.{rx_name}.{label}"
        points.append(PointSpec(
            key=key,
            streams=(StreamSpec(
                key=key, rng_slot=index, budget=trials, trial=_link_trial,
                static_args=(label, rx_name, distance, losses[rx_name]),
                kind="rate", extract=_packet_error_flag,
            ),),
            meta={"distance_m": distance, "receiver": rx_name,
                  "waveform": label},
        ))
    return SweepPlan(points=tuple(points), rng_slots=len(cells))


def _context(
    config: Mapping[str, Any], base: np.random.Generator
) -> Dict[str, Any]:
    return {
        "env": resolve_environment(config, rng=0),
        "receivers": {
            "usrp": ZigBeeReceiver(usrp_receiver_config()),
            "cc26x2": ZigBeeReceiver(cc26x2_receiver_config()),
        },
        "original": prepare_authentic(),
        "emulated": prepare_emulated(rng=base),
    }


def _mean_budget(config: Mapping[str, Any]) -> LinkBudget:
    # Reported SNR/RSSI columns use the shadowing-free budget mean; the
    # per-trial channels still draw shadowing from their own streams.
    return replace(
        resolve_environment(config, rng=0).budget, shadowing_sigma_db=0.0
    )


def _columns(config: Mapping[str, Any], adaptive: bool) -> List[str]:
    columns = [
        "distance_m", "receiver", "waveform",
        "packet_error_rate", "symbol_error_rate", "snr_db", "rssi_dbm",
    ]
    if adaptive:
        columns.extend(["trials_used", "ci_low", "ci_high"])
    return columns


def _rows(reduction: SweepReduction) -> None:
    mean_budget = _mean_budget(reduction.config)
    rssi = RssiEstimator(reference_dbm=0.0)
    for point in reduction.plan.points:
        meta = point.meta
        distance = meta["distance_m"]
        label = meta["waveform"]
        outcome = reduction.outcomes[point.key]
        symbols = reduction.context[label].sent.symbols[12:].size
        # A lost packet (None) fails, and all of its symbols are errors.
        packets_failed = sum(
            1 for row in outcome.results if row is None or not row[1]
        )
        errors = sum(
            symbols if row is None else row[0] for row in outcome.results
        )
        sent = len(outcome.results)
        row = {
            "distance_m": distance,
            "receiver": meta["receiver"],
            "waveform": label,
            "packet_error_rate": packets_failed / sent,
            "symbol_error_rate": errors / (sent * symbols),
            "snr_db": float(mean_budget.snr_db(distance)),
            "rssi_dbm": rssi.estimate_from_power_dbm(
                float(mean_budget.received_power_dbm(distance))
            ),
        }
        if reduction.adaptive:
            row.update(
                trials_used=outcome.trials_used,
                ci_low=outcome.ci_low,
                ci_high=outcome.ci_high,
            )
        reduction.result.add_row(**row)


def _notes(config: Mapping[str, Any]) -> List[str]:
    return [
        "USRP profile: quadrature demodulation + implementation loss; "
        "CC26x2 profile: coherent correlator (the paper's 'stronger "
        "demodulation functions')"
    ]


SPEC = SweepSpec(
    experiment_id="fig14",
    title="Fig. 14: waveform emulation attack performance vs distance",
    defaults={
        "distances_m": (1, 2, 3, 4, 5, 6, 7, 8),
        "trials": 10,
    },
    fingerprint=_fingerprint,
    plan=_plan,
    context=_context,
    columns=_columns,
    rows=_rows,
    notes=_notes,
    scenario=ScenarioSupport(
        axes=("distances_m", "trials"),
        channel="environment",
    ),
)


run = partial(run_sweep, SPEC)
