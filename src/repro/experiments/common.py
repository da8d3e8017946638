"""Shared infrastructure for the per-table/figure experiment modules.

Every experiment module exposes ``run(...) -> ExperimentResult`` with
defaults small enough for CI; pass larger ``trials`` for paper-scale
statistics.  The result carries printable rows so the benchmark harness
and the CLI can render the same tables the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attack.emulator import (
    EmulationConfig,
    EmulationResult,
    WaveformEmulationAttack,
)
from repro.channel.awgn import add_awgn
from repro.errors import ConfigurationError
from repro.telemetry import get_telemetry
from repro.utils.rng import RngLike
from repro.utils.signal_ops import Waveform, normalize_power
from repro.zigbee.receiver import (
    DEFAULT_CHIPS,
    ReceivedPacket,
    ReceiverConfig,
    ZigBeeReceiver,
)
from repro.zigbee.transmitter import TransmitResult, ZigBeeTransmitter


@dataclass
class ExperimentResult:
    """A reproduced table or figure.

    Attributes:
        experiment_id: paper artifact id, e.g. ``"table2"`` or ``"fig10"``.
        title: human-readable description.
        columns: column names of the reproduced table.
        rows: list of row dicts keyed by column name.
        series: optional named numeric series (figure data).
        notes: free-form remarks (substitutions, calibrated values).
        manifest: run manifest (seed, config, versions, host, timing
            tree) attached by the CLI/benchmark harness; ``None`` when
            the runner was called directly without provenance tracking.
    """

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    manifest: Optional[Dict[str, Any]] = None

    def attach_manifest(
        self,
        seed: Optional[int] = None,
        config: Optional[Dict[str, Any]] = None,
        span_tree: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Build and attach a run manifest; returns it for convenience."""
        from repro.telemetry import build_manifest

        merged = {"experiment_id": self.experiment_id}
        merged.update(config or {})
        self.manifest = build_manifest(
            seed=seed, config=merged, span_tree=span_tree
        )
        return self.manifest

    def add_row(self, **values: Any) -> None:
        """Append one table row; keys must match ``columns``."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ConfigurationError(f"unknown columns: {sorted(unknown)}")
        self.rows.append(values)

    def format_table(self) -> str:
        """Render the rows as an aligned text table."""
        def _fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.4f}"
            return str(value)

        widths = {
            column: max(
                len(column), *(len(_fmt(row.get(column, ""))) for row in self.rows)
            ) if self.rows else len(column)
            for column in self.columns
        }
        header = "  ".join(column.ljust(widths[column]) for column in self.columns)
        lines = [self.title, header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                "  ".join(
                    _fmt(row.get(column, "")).ljust(widths[column])
                    for column in self.columns
                )
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def default_payload() -> bytes:
    """The canonical APP payload used across experiments."""
    return b"00042"


def build_observed_waveform(
    payload: Optional[bytes] = None, transmitter: Optional[ZigBeeTransmitter] = None
) -> TransmitResult:
    """One authentic ZigBee frame as observed by the attacker."""
    tx = transmitter or ZigBeeTransmitter()
    return tx.transmit_payload(payload if payload is not None else default_payload())


@dataclass
class PreparedLink:
    """A pre-emulated transmission reused across noise realizations.

    Emulation is deterministic given the observed waveform, so sweeps add
    fresh noise to the same emulated (or authentic, rate-converted)
    waveform instead of re-running the attack per trial — exactly the
    paper's "1000 waveform transmissions" methodology.
    """

    sent: TransmitResult
    on_air: Waveform
    emulation: Optional[EmulationResult]


#: Signal-free samples prepended to every on-air waveform (25 us at
#: 20 Msps) so the receiver can estimate its noise floor before the frame.
LEAD_IN_SAMPLES = 500


def _with_lead_in(waveform: Waveform) -> Waveform:
    zeros = np.zeros(LEAD_IN_SAMPLES, dtype=np.complex128)
    return Waveform(
        np.concatenate([zeros, waveform.samples]), waveform.sample_rate_hz
    )


def prepare_authentic(payload: Optional[bytes] = None) -> PreparedLink:
    """Authentic ZigBee waveform upconverted to the 20 Msps air rate."""
    from repro.attack.interpolate import to_wifi_rate

    sent = build_observed_waveform(payload)
    return PreparedLink(
        sent=sent,
        on_air=_with_lead_in(to_wifi_rate(sent.waveform)),
        emulation=None,
    )


def prepare_emulated(
    payload: Optional[bytes] = None,
    config: Optional[EmulationConfig] = None,
    rng: RngLike = None,
) -> PreparedLink:
    """Emulated waveform ready for repeated noisy transmission."""
    with get_telemetry().span("experiment.prepare_emulated"):
        sent = build_observed_waveform(payload)
        attack = WaveformEmulationAttack(config=config, rng=rng)
        emulation = attack.emulate(sent.waveform)
    return PreparedLink(
        sent=sent,
        on_air=_with_lead_in(attack.transmit_waveform(emulation)),
        emulation=emulation,
    )


def transmit_batch(
    prepared: PreparedLink,
    receiver: ZigBeeReceiver,
    snr_db: Optional[float],
    rngs: Sequence[np.random.Generator],
    channel_factory: Optional[Callable[..., Any]] = None,
    chips: Tuple[str, ...] = DEFAULT_CHIPS,
) -> List[Optional[ReceivedPacket]]:
    """Noisy transmissions of a prepared waveform, one per RNG.

    The prepared waveform is normalized once and each row draws its
    noise from its own generator with :func:`add_awgn`, exactly as
    :class:`AwgnChannel` would; the stack then goes through the
    receiver's batched chain.  ``channel_factory`` (a scenario override;
    see :mod:`repro.experiments.sweep`) replaces the AWGN stage with
    ``channel_factory(snr_db, rng)`` row by row.  ``chips`` names the
    chip sources the caller reads (see
    :meth:`ZigBeeReceiver.receive_batch`).  ``None`` in the result marks
    a lost synchronization.
    """
    telemetry = get_telemetry()
    if not rngs:
        return []
    with telemetry.span("experiment.transmit"):
        waveform = prepared.on_air
        samples = waveform.samples
        if channel_factory is not None:
            with telemetry.span("channel.custom"):
                rows = [
                    channel_factory(snr_db, generator).apply(waveform).samples
                    for generator in rngs
                ]
                stacked = np.stack(rows)
        elif snr_db is None:
            stacked = np.tile(samples, (len(rngs), 1))
        else:
            with telemetry.span("channel.awgn"):
                normalized = normalize_power(samples)
                stacked = np.empty(
                    (len(rngs), normalized.size), dtype=np.complex128
                )
                for row, generator in enumerate(rngs):
                    stacked[row] = add_awgn(
                        normalized, snr_db, rng=generator, signal_power=1.0
                    )
        packets = receiver.receive_batch(
            stacked, waveform.sample_rate_hz, chips=chips
        )
        for packet in packets:
            if packet is None:
                telemetry.count("experiment.sync_lost")
        return packets


def propagate_batch(
    environment: Any,
    prepared: PreparedLink,
    distance_m: float,
    rngs: Sequence[np.random.Generator],
    extra_loss_db: float = 0.0,
) -> np.ndarray:
    """A (len(rngs), n) stack of the on-air waveform through the channel.

    Each row is one :meth:`RealEnvironment.channel_at` realization drawn
    from that row's own generator.
    """
    waveform = prepared.on_air
    stacked = np.empty((len(rngs), waveform.samples.size), dtype=np.complex128)
    for row, rng in enumerate(rngs):
        channel = environment.channel_at(
            distance_m, extra_loss_db=extra_loss_db, rng=rng
        )
        stacked[row] = channel.apply(waveform).samples
    return stacked


def packet_delivered(prepared: PreparedLink, packet: Optional[ReceivedPacket]) -> bool:
    """The paper's success criterion for one transmission."""
    if packet is None or not packet.fcs_ok or packet.psdu is None:
        return False
    return packet.psdu == prepared.sent.ppdu[6:]
