"""Integration tests of the paper's complete narrative.

Each test tells one chapter of the story end-to-end:
attack succeeds -> rejected defenses fail -> cumulant defense catches it.
"""

import numpy as np
import pytest

from repro.attack.emulator import EmulationConfig, WaveformEmulationAttack
from repro.channel.awgn import AwgnChannel
from repro.channel.environment import RealEnvironment
from repro.defense.detector import CumulantDetector, Hypothesis, calibrate_threshold
from repro.experiments.defense_common import defense_receiver
from repro.link.stack import EmulationAttackLink, ZigBeeDirectLink
from repro.zigbee.receiver import ReceiverConfig, ZigBeeReceiver
from repro.zigbee.transmitter import ZigBeeTransmitter


class TestAttackNarrative:
    def test_attacker_controls_device_with_intercepted_command(self):
        """Channel listening -> emulation -> the receiver obeys."""
        # t1: a gateway sends a command; the attacker records the waveform.
        gateway = ZigBeeTransmitter()
        command = gateway.transmit_payload(b"UNLOCK-DOOR", sequence_number=42)

        # t2: the attacker replays its WiFi emulation.
        attacker = WaveformEmulationAttack()
        emulated = attacker.emulate(command.waveform)
        on_air = attacker.transmit_waveform(emulated)

        victim = ZigBeeReceiver()
        packet = victim.receive(on_air)
        assert packet.fcs_ok
        assert packet.mac_frame.payload == b"UNLOCK-DOOR"
        assert packet.mac_frame.sequence_number == 42

    def test_attack_survives_moderate_noise_but_not_deep_noise(self):
        link = EmulationAttackLink(
            receiver=ZigBeeReceiver(
                ReceiverConfig(demodulation="quadrature", decimation="naive")
            )
        )
        high = [
            link.send(b"cmd", channel=AwgnChannel(17, rng=i)).delivered
            for i in range(8)
        ]
        low = [
            link.send(b"cmd", channel=AwgnChannel(3, rng=100 + i)).delivered
            for i in range(8)
        ]
        assert np.mean(high) > np.mean(low)
        assert np.mean(high) == 1.0

    def test_attack_defeats_longer_commands_too(self):
        link = EmulationAttackLink()
        outcome = link.send(bytes(range(90)))
        assert outcome.delivered


class TestDefenseNarrative:
    def _statistic(self, link, payload, channel, detector):
        outcome = link.send(payload, channel=channel)
        assert outcome.packet is not None and outcome.packet.decoded
        chips = outcome.packet.diagnostics.psdu_quadrature_soft_chips
        return detector.statistic(chips).distance_squared

    def test_calibrate_then_classify(self):
        """The paper's full protocol: train on 50/50, test on fresh data."""
        detector = CumulantDetector()
        receiver = defense_receiver()
        direct = ZigBeeDirectLink(receiver=receiver)
        attack = EmulationAttackLink(receiver=receiver)

        train_zigbee = [
            self._statistic(direct, b"train", AwgnChannel(12, rng=i), detector)
            for i in range(6)
        ]
        train_emulated = [
            self._statistic(attack, b"train", AwgnChannel(12, rng=50 + i), detector)
            for i in range(6)
        ]
        threshold = calibrate_threshold(train_zigbee, train_emulated)

        tuned = CumulantDetector(threshold=threshold)
        fresh_zigbee = self._statistic(
            direct, b"test", AwgnChannel(12, rng=99), tuned
        )
        fresh_emulated = self._statistic(
            attack, b"test", AwgnChannel(12, rng=98), tuned
        )
        assert fresh_zigbee < threshold <= fresh_emulated

    def test_defense_works_in_real_environment(self):
        """Distance + fading + offsets: |C40| + noise correction separates."""
        detector = CumulantDetector(use_abs_c40=True)
        receiver = defense_receiver()
        direct = ZigBeeDirectLink(receiver=receiver)
        attack = EmulationAttackLink(receiver=receiver)
        env = RealEnvironment(rng=5)

        def statistic_of(outcome):
            packet = outcome.packet
            chips = packet.diagnostics.psdu_soft_chips
            noise = packet.diagnostics.chip_noise_variance(
                "matched_filter", receiver.config.samples_per_chip
            )
            return detector.statistic(
                chips, chip_noise_variance=noise
            ).distance_squared

        zigbee_values, emulated_values = [], []
        for i in range(5):
            z = direct.send(b"real", channel=env.channel_at(3.0))
            e = attack.send(b"real", channel=env.channel_at(3.0))
            if z.packet and z.packet.decoded:
                zigbee_values.append(statistic_of(z))
            if e.packet and e.packet.decoded:
                emulated_values.append(statistic_of(e))
        assert zigbee_values and emulated_values
        assert max(zigbee_values) < min(emulated_values)

    def test_defense_against_rf_mode_attack(self):
        """The standards-compliant (pilots + offset) attack is also caught."""
        transmitter = ZigBeeTransmitter()
        sent = transmitter.transmit_payload(b"rf-mode")
        attack = WaveformEmulationAttack(config=EmulationConfig(mode="rf"), rng=2)
        emulated = attack.emulate(sent.waveform)

        from repro.utils.signal_ops import Waveform, frequency_shift

        received = Waveform(
            frequency_shift(emulated.waveform.samples, 5e6, 20e6), 20e6
        )
        receiver = defense_receiver()
        packet = receiver.receive(received)
        assert packet.decoded  # the attack works...

        detector = CumulantDetector(use_abs_c40=True)
        verdict = detector.statistic(
            packet.diagnostics.psdu_quadrature_soft_chips
        )
        assert verdict.hypothesis is Hypothesis.WIFI_ATTACKER or (
            verdict.distance_squared > 0.02
        )  # ...but leaves footprints well above the authentic range.
