"""Benchmarks for the extension features beyond the paper.

* ROC curve of the single-packet detector across SNRs;
* sequential multi-packet detection: packets-to-decision;
* defense robustness under co-channel WiFi interference;
* the sixth-order (C63) extended feature's extra separation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.awgn import AwgnChannel
from repro.channel.interference import WifiInterferenceChannel
from repro.defense.constellation import reconstruct_constellation
from repro.defense.detector import CumulantDetector
from repro.defense.features import extended_feature
from repro.defense.roc import roc_curve
from repro.defense.sequential import SequentialDecision, SequentialDetector
from repro.experiments.common import prepare_authentic, prepare_emulated
from repro.experiments.defense_common import defense_receiver, statistic_trial
from repro.utils.rng import spawn_rngs


@pytest.fixture(scope="module")
def score_populations():
    """Per-SNR D_E^2 scores for both classes (shared by the benches)."""
    context = {
        "zigbee": prepare_authentic(),
        "emulated": prepare_emulated(),
        "receiver": defense_receiver(),
        "detector": CumulantDetector(),
    }

    def scores(link_key, snr, seed):
        args = (link_key, "quadrature", False, snr, "de2")
        rows = statistic_trial(context, args, spawn_rngs(seed, 12))
        return [row for row in rows if row is not None]

    populations = {}
    for i, snr in enumerate((7, 12, 17)):
        populations[snr] = (
            scores("zigbee", snr, 100 + i), scores("emulated", snr, 200 + i)
        )
    return populations


def test_bench_roc(benchmark, capsys, score_populations):
    def run():
        rows = []
        for snr, (h0, h1) in score_populations.items():
            curve = roc_curve(h0, h1)
            rows.append((snr, curve.auc, curve.equal_error_rate()))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nextension: detector ROC per SNR")
        print(f"{'snr':>4} {'AUC':>7} {'EER':>7}")
        for snr, auc, eer in rows:
            print(f"{snr:>4} {auc:>7.4f} {eer:>7.4f}")
    for _, auc, eer in rows:
        assert auc == pytest.approx(1.0, abs=1e-6)
        assert eer == pytest.approx(0.0, abs=1e-6)


def test_bench_sequential_detection(benchmark, capsys, score_populations):
    h0_train = [v for h0, _ in score_populations.values() for v in h0]
    h1_train = [v for _, h1 in score_populations.values() for v in h1]

    def run():
        detector = SequentialDetector.calibrate(
            h0_train, h1_train, false_alarm_rate=1e-6, miss_rate=1e-6
        )
        # Feed held-out-style streams (reuse the 17 dB population).
        h0_stream = score_populations[17][0] * 3
        h1_stream = score_populations[17][1] * 3
        d0, n0 = detector.run(h0_stream)
        d1, n1 = detector.run(h1_stream)
        return d0, n0, d1, n1

    d0, n0, d1, n1 = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nextension: sequential detection at 1e-6 target error rates")
        print(f"  authentic stream -> {d0.value} after {n0} packets")
        print(f"  attack stream    -> {d1.value} after {n1} packets")
    assert d0 is SequentialDecision.AUTHENTIC
    assert d1 is SequentialDecision.ATTACK
    assert n1 <= 5  # evidence accumulates fast when classes are separated


def test_bench_defense_under_interference(benchmark, capsys):
    """Co-channel WiFi bursts must not break the classification."""
    receiver = defense_receiver()
    detector = CumulantDetector()
    authentic = prepare_authentic()
    emulated = prepare_emulated()

    def run():
        rows = []
        rngs = spawn_rngs(7, 20)
        for duty in (0.0, 0.05, 0.15):
            h0, h1 = [], []
            for i in range(6):
                for target, prepared in ((h0, authentic), (h1, emulated)):
                    channel = WifiInterferenceChannel(
                        interference_db=-12.0, duty_cycle=duty,
                        offset_hz=5e6, rng=rngs[i],
                    )
                    waveform = channel.apply(prepared.on_air)
                    waveform = AwgnChannel(17, rng=rngs[10 + i]).apply(waveform)
                    packet = receiver.receive(waveform)
                    if packet.decoded:
                        target.append(detector.statistic(
                            packet.diagnostics.psdu_quadrature_soft_chips
                        ).distance_squared)
            rows.append((duty, max(h0), min(h1)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nextension: defense under co-channel WiFi interference")
        print(f"{'duty':>6} {'zigbee max DE2':>15} {'emulated min DE2':>17}")
        for duty, h0_max, h1_min in rows:
            print(f"{duty:>6.2f} {h0_max:>15.4f} {h1_min:>17.4f}")
    for _, h0_max, h1_min in rows:
        assert h1_min > h0_max  # gap survives the interference


def test_bench_noisy_observation(benchmark, capsys):
    """Attack success vs listening SNR, with and without capture averaging.

    The paper assumes a noiseless observation; coherent averaging of K
    captures buys back 10 log10 K dB of listening SNR.
    """
    from repro.attack import WaveformEmulationAttack
    from repro.attack.observation import ChannelListener
    from repro.utils.signal_ops import Waveform
    from repro.zigbee.transmitter import ZigBeeTransmitter
    from repro.zigbee.receiver import ZigBeeReceiver

    transmitter = ZigBeeTransmitter()
    sent = transmitter.transmit_payload(b"observe")
    receiver = ZigBeeReceiver()
    attack = WaveformEmulationAttack()
    listener = ChannelListener()

    def captures(snr, count, seed0):
        pad = np.zeros(150, dtype=complex)
        clean = Waveform(
            np.concatenate([pad, sent.waveform.samples, pad]), 4e6
        )
        return [AwgnChannel(snr, rng=seed0 + i).apply(clean)
                for i in range(count)]

    from repro.errors import SynchronizationError

    def attack_from(template):
        emulation = attack.emulate(template)
        try:
            packet = receiver.receive(attack.transmit_waveform(emulation))
        except SynchronizationError:
            return False
        return packet.fcs_ok and packet.psdu == sent.ppdu[6:]

    def try_average(batch):
        try:
            return listener.average(batch, length=len(sent.waveform))
        except SynchronizationError:
            return None

    def run():
        rows = []
        for snr in (-9.0, -6.0, 0.0):
            single = 0
            averaged = 0
            for trial in range(4):
                seed0 = 1000 * trial + (int(snr) + 20) * 37
                batch = captures(snr, 16, seed0=seed0)
                one = try_average(batch[:1])
                many = try_average(batch)
                single += one is not None and attack_from(one.waveform)
                averaged += many is not None and attack_from(many.waveform)
            rows.append((snr, single / 4, averaged / 4))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nextension: attack success vs listening SNR")
        print(f"{'snr':>5} {'1 capture':>10} {'16 averaged':>12}")
        for snr, single, averaged in rows:
            print(f"{snr:>5.0f} {single:>10.2f} {averaged:>12.2f}")
    for _, single, averaged in rows:
        assert averaged >= single
    # Averaging rescues the -6 dB case where a single capture fails.
    assert rows[1][2] > rows[1][1]
    assert rows[-1][2] == 1.0


def test_bench_amc_accuracy(benchmark, capsys):
    """Flat vs hierarchical AMC accuracy over SNR (Swami & Sadler style)."""
    from repro.defense.amc import (
        CumulantClassifier,
        HierarchicalClassifier,
        synthesize_symbols,
    )

    names = ("BPSK", "4PAM", "QPSK", "8PSK", "16QAM", "64QAM")
    flat = CumulantClassifier(candidates=names)
    hierarchical = HierarchicalClassifier()

    def run():
        rows = []
        for snr in (8.0, 14.0, 20.0):
            noise = 10 ** (-snr / 10)
            flat_hits = tree_hits = 0
            trials = 0
            for seed, name in enumerate(names):
                for repeat in range(3):
                    symbols = synthesize_symbols(
                        name, 4000, snr_db=snr, rng=100 * seed + repeat
                    )
                    flat_hits += flat.classify(
                        symbols, noise_variance=noise).label == name
                    tree_hits += hierarchical.classify(
                        symbols, noise_variance=noise).label == name
                    trials += 1
            rows.append((snr, flat_hits / trials, tree_hits / trials))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nextension: AMC accuracy over Table III constellations")
        print(f"{'snr':>5} {'flat':>7} {'hierarchical':>13}")
        for snr, flat_acc, tree_acc in rows:
            print(f"{snr:>5.0f} {flat_acc:>7.2f} {tree_acc:>13.2f}")
    # Both classifiers are reliable at high SNR; the hierarchy never loses.
    assert rows[-1][1] >= 0.9
    assert all(tree >= flat - 0.12 for _, flat, tree in rows)


def test_bench_channel_planning(benchmark, capsys):
    """No standard WiFi channel aligns; 14 custom SDR centres do."""
    from repro.attack.planning import coverage_matrix, feasible_custom_centers

    def run():
        return coverage_matrix().sum(), len(feasible_custom_centers(17))

    standard, custom = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nextension: channel planning")
        print(f"  feasible standard WiFi channels (any ZigBee ch): {standard}")
        print(f"  feasible custom SDR centres for ZigBee 17:       {custom}")
    assert standard == 0
    assert custom == 14


def test_bench_sixth_order_feature(benchmark, capsys):
    """C63 adds a second axis of separation on top of [C40, C42]."""
    receiver = defense_receiver()
    authentic = prepare_authentic()
    emulated = prepare_emulated()

    def run():
        results = {}
        for label, prepared in (("zigbee", authentic), ("emulated", emulated)):
            waveform = AwgnChannel(17, rng=hash(label) % 1000).apply(
                prepared.on_air
            )
            packet = receiver.receive(waveform)
            points = reconstruct_constellation(
                packet.diagnostics.psdu_quadrature_soft_chips
            )
            feature = extended_feature(points)
            results[label] = (feature.c40, feature.c42, feature.c63,
                              feature.distance_squared())
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nextension: sixth-order feature [C40, C42, C63]")
        print(f"{'class':>9} {'C40':>8} {'C42':>8} {'C63':>8} {'dist2':>9}")
        for label, (c40, c42, c63, dist) in results.items():
            print(f"{label:>9} {c40:>8.3f} {c42:>8.3f} {c63:>8.3f} {dist:>9.4f}")
    assert results["emulated"][3] > 5 * results["zigbee"][3]
