"""An online attack monitor: the defense as a deployable component.

:class:`AttackMonitor` consumes decoded packets as they arrive, computes
the per-packet cumulant statistic, maintains per-source sequential
evidence, and raises alerts.  It composes the building blocks of this
package the way an operator would: a :class:`CumulantDetector` for the
statistic, a :class:`SequentialDetector` for cross-packet aggregation,
and per-source state keyed by the MAC source address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.defense.detector import CumulantDetector, DetectionResult
from repro.defense.sequential import (
    SequentialDecision,
    SequentialDetector,
    SequentialState,
)
from repro.errors import ConfigurationError
from repro.zigbee.receiver import CHIP_SOURCES, ReceivedPacket


@dataclass(frozen=True)
class MonitorAlert:
    """One alert raised by the monitor.

    Attributes:
        source: MAC source address the evidence accumulated against.
        decision: the sequential decision that fired.
        packets_observed: packets from this source when the alert fired.
        last_statistic: the final packet's D_E^2.
    """

    source: int
    decision: SequentialDecision
    packets_observed: int
    last_statistic: float


@dataclass
class SourceRecord:
    """Monitoring state of one transmitter."""

    state: SequentialState = field(default_factory=SequentialState)
    resolved: Optional[SequentialDecision] = None
    statistics: List[float] = field(default_factory=list)


class AttackMonitor:
    """Per-source online detection over a stream of received packets.

    Args:
        detector: single-packet statistic (defaults to the calibrated
            cumulant detector on quadrature chips).
        sequential: cross-packet aggregator; when ``None``, each packet
            is judged alone against ``detector.threshold``.
        chip_source: which receiver chip tap (one of
            :data:`repro.zigbee.receiver.CHIP_SOURCES`) feeds the
            statistic.  Kept as the ``chip_source`` attribute, so callers
            receive with ``chips=(monitor.chip_source,)``.
        min_chips: packets with fewer PSDU chips are ignored.
        sticky: freeze a source once resolved (one alert per source).
            Disable to judge and alert on every packet — appropriate when
            a single source address may interleave authentic and spoofed
            traffic, as in a replay campaign.
        noise_corrected: subtract the receiver's per-packet noise-floor
            estimate (Sec. VI-B2) before normalizing the cumulants.
            Only applies to the linear matched-filter chip source.
    """

    def __init__(
        self,
        detector: Optional[CumulantDetector] = None,
        sequential: Optional[SequentialDetector] = None,
        chip_source: str = "quadrature",
        min_chips: int = 64,
        sticky: bool = True,
        noise_corrected: bool = False,
        samples_per_chip: int = 2,
    ):
        if chip_source not in CHIP_SOURCES:
            raise ConfigurationError(f"unknown chip source {chip_source!r}")
        if min_chips < 8:
            raise ConfigurationError("min_chips must be >= 8")
        self.detector = detector or CumulantDetector()
        self.sequential = sequential
        self.chip_source = chip_source
        self.min_chips = min_chips
        self.sticky = sticky
        self.noise_corrected = noise_corrected
        self.samples_per_chip = samples_per_chip
        self._sources: Dict[int, SourceRecord] = {}

    @property
    def sources(self) -> Dict[int, SourceRecord]:
        """Monitoring state per observed source address."""
        return dict(self._sources)

    def observe(self, packet: ReceivedPacket) -> Optional[MonitorAlert]:
        """Fold one received packet into the monitor.

        Returns an alert when this packet resolves its source as an
        attacker; ``None`` otherwise (including for sources already
        resolved, whose evidence is frozen).
        """
        if packet.mac_frame is None or not packet.decoded:
            return None
        chips = packet.diagnostics.psdu_chips(self.chip_source)
        if chips.size < self.min_chips:
            return None
        source = packet.mac_frame.source
        record = self._sources.setdefault(source, SourceRecord())
        if self.sticky and record.resolved is not None:
            return None

        chip_noise = (
            packet.diagnostics.chip_noise_variance(
                self.chip_source, self.samples_per_chip
            )
            if self.noise_corrected
            else None
        )
        result: DetectionResult = self.detector.statistic(
            chips, chip_noise_variance=chip_noise
        )
        record.statistics.append(result.distance_squared)

        if self.sequential is None:
            if result.is_attack:
                if self.sticky:
                    record.resolved = SequentialDecision.ATTACK
                return MonitorAlert(
                    source=source,
                    decision=SequentialDecision.ATTACK,
                    packets_observed=len(record.statistics),
                    last_statistic=result.distance_squared,
                )
            return None

        decision = self.sequential.update(record.state, result.distance_squared)
        if decision is SequentialDecision.CONTINUE:
            return None
        record.resolved = decision
        if decision is SequentialDecision.ATTACK:
            return MonitorAlert(
                source=source,
                decision=decision,
                packets_observed=record.state.packets_observed,
                last_statistic=result.distance_squared,
            )
        return None

    def verdict_for(self, source: int) -> Optional[SequentialDecision]:
        """The resolved decision for a source, if any."""
        record = self._sources.get(source)
        return record.resolved if record else None

    def reset(self, source: Optional[int] = None) -> None:
        """Forget one source's evidence, or everything."""
        if source is None:
            self._sources.clear()
        else:
            self._sources.pop(source, None)
