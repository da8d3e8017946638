"""Adaptive precision-targeted Monte Carlo: estimators, sweep, parity."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import table2_attack_awgn
from repro.experiments.adaptive import (
    MIN_TRIALS,
    AdaptiveConfig,
    MeanEstimator,
    RateEstimator,
    normal_quantile,
    wilson_interval,
)
from repro.experiments.engine import MonteCarloEngine
from repro.experiments.sweep import (
    PointSpec,
    StreamSpec,
    SweepPlan,
    SweepSpec,
    run_sweep,
)
from repro.telemetry import get_telemetry
from repro.telemetry.events import MemoryEventSink, get_event_stream


def _coin_trial(context, args, rngs):
    (p,) = args
    return [bool(rng.random() < p) for rng in rngs]


def _gauss_trial(context, args, rngs):
    mean, sigma = args
    return [float(mean + sigma * rng.standard_normal()) for rng in rngs]


TOY_COLUMNS = ["key", "trials_used", "converged", "capped", "estimate",
               "ci_low", "ci_high"]


def _toy_rows(reduction):
    """One row per stream: its settled outcome."""
    for point in reduction.plan.points:
        for stream in point.streams:
            outcome = reduction.outcomes[stream.key]
            reduction.result.add_row(
                key=stream.key,
                **{name: getattr(outcome, name) for name in TOY_COLUMNS[1:]},
            )


def coin(key, p, budget):
    """A Bernoulli(p) rate stream."""
    return StreamSpec(key=key, rng_slot=0, budget=budget, trial=_coin_trial,
                      static_args=(p,), kind="rate")


def gauss(key, mean, sigma, budget):
    """A Normal(mean, sigma) mean stream."""
    return StreamSpec(key=key, rng_slot=0, budget=budget,
                      trial=_gauss_trial, static_args=(mean, sigma))


def toy_spec(*streams):
    """A one-point sweep over ``streams``, one RNG slot each."""
    slotted = tuple(
        replace(stream, rng_slot=slot) for slot, stream in enumerate(streams)
    )
    plan = SweepPlan(points=(PointSpec(key="toy", streams=slotted),),
                     rng_slots=len(slotted))
    return SweepSpec(
        experiment_id="unit",
        title="toy sweep",
        defaults={},
        fingerprint=lambda config: {},
        plan=lambda config: plan,
        context=lambda config, base: {},
        columns=lambda config, adaptive: list(TOY_COLUMNS),
        rows=_toy_rows,
    )


def run_toy(*streams, **kwargs):
    """Adaptive toy sweep at seed 0; rows keyed by stream key."""
    result = run_sweep(toy_spec(*streams), rng=0, adaptive=True, **kwargs)
    return {row["key"]: row for row in result.rows}


class TestIntervalMath:
    def test_normal_quantile_matches_known_z_scores(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.995) == pytest.approx(2.575829, abs=1e-5)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_normal_quantile_rejects_endpoints(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigurationError):
                normal_quantile(p)

    def test_wilson_interval_brackets_the_estimate(self):
        for successes, trials in ((0, 10), (5, 10), (10, 10), (1, 1000)):
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_wilson_interval_never_collapses_at_the_boundary(self):
        low, high = wilson_interval(20, 20)
        assert high - low > 0.0
        low, high = wilson_interval(0, 20)
        assert high - low > 0.0

    def test_wilson_interval_empty_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_interval_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 3)
        with pytest.raises(ConfigurationError):
            wilson_interval(-1, 3)


class TestEstimators:
    def test_rate_estimator_counts_falsy_rows_as_failures(self):
        estimator = RateEstimator()
        estimator.add([True, False, None, 1, 0])
        assert estimator.observations == 5
        assert estimator.successes == 2

    def test_rate_converges_symmetrically_for_p_and_one_minus_p(self):
        high = RateEstimator()
        high.add([True] * 30)
        low = RateEstimator()
        low.add([False] * 30)
        assert high.converged(0.1) == low.converged(0.1)

    def test_rate_estimator_unconverged_while_empty(self):
        estimator = RateEstimator()
        assert not estimator.converged(0.5)
        assert estimator.half_width() == float("inf")

    def test_mean_estimator_matches_numpy_welford(self):
        rng = np.random.default_rng(0)
        values = list(rng.normal(3.0, 0.5, 100))
        estimator = MeanEstimator()
        estimator.add(values)
        assert estimator.estimate == pytest.approx(np.mean(values), rel=1e-12)
        assert estimator.variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-9
        )

    def test_mean_estimator_skips_none_rows(self):
        estimator = MeanEstimator()
        estimator.add([1.0, None, 3.0, None])
        assert estimator.count == 2
        assert estimator.estimate == pytest.approx(2.0)

    def test_mean_estimator_zero_variance_converges(self):
        estimator = MeanEstimator()
        estimator.add([2.5] * 5)
        assert estimator.converged(0.01)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(rel_precision=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(max_trials=0)

    def test_config_chunk_and_cap_resolution(self):
        config = AdaptiveConfig()
        assert config.resolve_chunk(100) == 12
        assert config.resolve_chunk(4) == 4
        assert config.resolve_cap(100) == 400
        assert AdaptiveConfig(max_trials=50).resolve_cap(20) == 50
        # The cap never undercuts the base budget.
        assert AdaptiveConfig(max_trials=5).resolve_cap(20) == 20


class TestAdaptiveSweep:
    """The adaptive policy of ``run_sweep``'s stream loop."""

    def test_deterministic_point_converges_at_min_trials(self):
        rows = run_toy(coin("sure", 1.0, 100))
        sure = rows["sure"]
        assert sure["converged"]
        # The first grant past MIN_TRIALS already meets the target.
        assert MIN_TRIALS <= sure["trials_used"] < 100
        assert sure["estimate"] == 1.0

    def test_boundary_point_receives_reallocated_budget(self):
        rows = run_toy(coin("easy", 1.0, 60), coin("hard", 0.5, 60),
                       rel_precision=0.05)
        assert rows["easy"]["trials_used"] < 60
        # The hard stream spends beyond its own base out of the savings.
        assert rows["hard"]["trials_used"] > 60
        assert rows["easy"]["trials_used"] + rows["hard"]["trials_used"] <= 120

    def test_cap_bounds_reallocation(self):
        rows = run_toy(coin("easy", 1.0, 60), coin("hard", 0.5, 60),
                       rel_precision=0.05, max_trials=70)
        assert rows["hard"]["trials_used"] <= 70
        assert rows["hard"]["capped"]
        assert not rows["hard"]["converged"]
        assert rows["easy"]["converged"]
        assert rows["easy"]["trials_used"] < 60

    def test_mean_point_converges(self):
        gaussian = run_toy(gauss("gauss", 10.0, 0.5, 400))["gauss"]
        assert gaussian["converged"]
        assert gaussian["trials_used"] < 400
        assert gaussian["estimate"] == pytest.approx(10.0, abs=0.5)
        half = (gaussian["ci_high"] - gaussian["ci_low"]) / 2.0
        assert half <= 0.1 * abs(gaussian["estimate"]) + 1e-12

    def test_settle_emits_point_converged_events_and_counters(self):
        stream = get_event_stream()
        sink = stream.add_sink(MemoryEventSink())
        stream.enable()
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            run_toy(coin("p1", 1.0, 50))
            events = [
                e for e in sink.records if e["event"] == "point_converged"
            ]
            counters = telemetry.registry.snapshot()["counters"]
        finally:
            stream.remove_sink(sink)
            stream.disable()
            telemetry.disable()
            telemetry.reset()
        assert len(events) == 1
        assert events[0]["experiment"] == "unit"
        assert events[0]["point"] == "p1"
        assert events[0]["trials_used"] > 0
        assert events[0]["trials_saved"] > 0
        assert events[0]["converged"] is True
        assert counters["engine.trials_saved"] == events[0]["trials_saved"]


class TestAdaptiveFixedParity:
    """The issue's core guarantee: adaptive prefixes are bit-identical."""

    def test_run_until_prefix_matches_fixed_run(self):
        engine = MonteCarloEngine()
        with engine.session({}) as session:
            fixed = session.run(
                _gauss_trial, 40, rng=7, static_args=(0.0, 1.0)
            )
        with engine.session({}) as session:
            incremental = session.run_until(
                _gauss_trial, rng=7, static_args=(0.0, 1.0)
            )
            for step in (5, 11, 3, 21):
                incremental.extend(step)
        assert incremental.results == fixed

    def test_run_until_prefix_matches_for_any_chunking(self):
        engine = MonteCarloEngine()
        with engine.session({}) as session:
            fixed = session.run(
                _coin_trial, 30, rng=11, static_args=(0.5,)
            )
        for chunks in ((30,), (10, 10, 10), (1,) * 30, (16, 14)):
            with engine.session({}) as session:
                incremental = session.run_until(
                    _coin_trial, rng=11, static_args=(0.5,)
                )
                for step in chunks:
                    incremental.extend(step)
            assert incremental.results == fixed

    def test_adaptive_table2_prefix_matches_fixed_outcomes(self):
        """The trials adaptive table2 executes are the fixed run's prefix."""
        fixed = table2_attack_awgn.run(
            snrs_db=(17,), trials=24, include_authentic=False,
            screen_defense=False, rng=5,
        )
        adaptive = table2_attack_awgn.run(
            snrs_db=(17,), trials=24, include_authentic=False,
            screen_defense=False, rng=5, adaptive=True,
        )
        row = adaptive.rows[0]
        assert row["trials_used"] < 24
        # At 17 dB every delivery succeeds, so the prefix rate matches
        # the fixed rate exactly and the CI half-width meets 10%.
        assert row["success_rate"] == fixed.rows[0]["success_rate"]
        assert (row["ci_high"] - row["ci_low"]) / 2.0 <= 0.1

    def test_adaptive_full_budget_reproduces_fixed_rates(self):
        """With convergence unreachable, adaptive spends the exact fixed
        budget and lands on identical rates (same seeds, same trials)."""
        fixed = table2_attack_awgn.run(
            snrs_db=(13, 17), trials=12, include_authentic=True,
            screen_defense=True, rng=9,
        )
        adaptive = table2_attack_awgn.run(
            snrs_db=(13, 17), trials=12, include_authentic=True,
            screen_defense=True, rng=9, adaptive=True,
            rel_precision=0.001, max_trials=12,
        )
        for fixed_row, adaptive_row in zip(fixed.rows, adaptive.rows):
            assert adaptive_row["trials_used"] == 12
            for column in ("success_rate", "authentic_success_rate",
                           "detected_rate"):
                if column in fixed_row:
                    assert adaptive_row[column] == fixed_row[column]

    def test_fixed_mode_rows_unchanged_by_the_adaptive_plumbing(self):
        """Fixed-budget runs stay bit-identical across the refactor:
        serial, chunked, and parallel paths all agree."""
        baseline = table2_attack_awgn.run(
            snrs_db=(15,), trials=10, include_authentic=False,
            screen_defense=False, rng=4,
        )
        chunked = table2_attack_awgn.run(
            snrs_db=(15,), trials=10, include_authentic=False,
            screen_defense=False, rng=4, chunk_size=3,
        )
        assert baseline.rows == chunked.rows


class TestAdaptiveCheckpoint:
    PARAMS = dict(
        snrs_db=(15, 17), trials=16, include_authentic=False,
        screen_defense=False,
    )

    def test_adaptive_resume_honors_trials_used(self, tmp_path):
        first = table2_attack_awgn.run(
            rng=6, adaptive=True, checkpoint_dir=str(tmp_path), **self.PARAMS
        )
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            resumed = table2_attack_awgn.run(
                rng=6, adaptive=True, checkpoint_dir=str(tmp_path),
                resume=True, **self.PARAMS
            )
            counters = telemetry.registry.snapshot()["counters"]
            assert counters.get("engine.trials", 0) == 0
        finally:
            telemetry.disable()
            telemetry.reset()
        assert resumed.rows == first.rows
        assert all("trials_used" in row for row in resumed.rows)

    def test_adaptive_and_fixed_checkpoints_do_not_mix(self, tmp_path):
        table2_attack_awgn.run(
            rng=6, checkpoint_dir=str(tmp_path), **self.PARAMS
        )
        with pytest.raises(ConfigurationError):
            table2_attack_awgn.run(
                rng=6, adaptive=True, checkpoint_dir=str(tmp_path),
                resume=True, **self.PARAMS
            )
