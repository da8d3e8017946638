"""Adaptive, precision-targeted Monte Carlo trial allocation.

The paper's headline numbers (Tables II/IV/V, Figs. 12-14) are Monte
Carlo estimates — error rates and averaged D_E^2 distances — and a
fixed per-point trial budget spends the same effort on a 17 dB point
whose success rate pins to 1.0 after a couple dozen trials as on a
7 dB point sitting near the decision boundary.  This module replaces
the fixed budget with a **sequential, confidence-interval-driven
stopping rule** in the spirit of the sequential test already used for
multi-packet detection (:mod:`repro.defense.sequential`) and of the
explicit sample-size-versus-confidence tradeoffs in the channel-
training authentication literature (Xu et al., arXiv:1901.07897):

* **rates** (attack success, detection, packet error) converge by the
  Wilson score interval — well-behaved at p near 0 and 1 where the
  naive Wald interval collapses;
* **means** (D_E^2 distances, RSSI readings) converge by a Welford
  running mean/variance with a normal-approximation interval;
* a point stops once its interval half-width reaches a target
  *relative precision* (default 10 %) or a hard per-point cap, and
  the trials it did not spend are **reallocated to points that did
  not converge** — typically the ones straddling the paper's Q = 0.5
  threshold, exactly where extra precision matters.

Trials execute in chunks through :meth:`EngineSession.run_until`, whose
seed streams are drawn from the same parent generator the fixed-budget
path uses — so the first ``n`` trials of an adaptive run are
bit-identical to a fixed ``n``-trial run at the same seed, and the
stopping decisions themselves are deterministic (they depend only on
trial outcomes, never on the wall clock).

Usage, as the sweep drivers wire it::

    sweep = AdaptiveSweep(session, base_trials=trials,
                          config=AdaptiveConfig(rel_precision=0.1),
                          experiment="table2")
    state = sweep.point(trial_fn, rng=point_rng, static_args=(snr,),
                        estimator=sweep.rate_estimator(),
                        extract=lambda row: row[0], key="snr17")
    ...                       # register every pending point (pass 1)
    sweep.settle()            # reallocate savings to stragglers (pass 2)
    outcome = state.outcome() # estimate, CI, trials_used, results
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.engine import EngineSession, IncrementalRun, TrialFn
from repro.telemetry import get_telemetry
from repro.telemetry.events import get_event_stream
from repro.utils.rng import RngLike

#: Default target relative half-width of a point's confidence interval.
DEFAULT_REL_PRECISION = 0.1

#: Default two-sided confidence level for the intervals.
DEFAULT_CONFIDENCE = 0.95

#: Trials a point must execute before its interval is trusted at all —
#: guards against a lucky first chunk stopping a point absurdly early.
DEFAULT_MIN_TRIALS = 16

#: Default hard cap, as a multiple of the point's base budget, on how
#: far reallocation may grow an unconverged point.
DEFAULT_MAX_TRIALS_FACTOR = 4


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF via bisection on ``math.erf``.

    Exact enough (1e-12) for z-scores, with no SciPy dependency on the
    hot path; called once per sweep, never per trial.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError("quantile probability must be in (0, 1)")

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    low, high = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if cdf(mid) < p:
            low = mid
        else:
            high = mid
        if high - low < 1e-12:
            break
    return 0.5 * (low + high)


def wilson_interval(
    successes: int, trials: int, z: float = 1.959963984540054
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Unlike the Wald interval it never collapses to zero width at
    ``successes in (0, trials)`` boundaries, so the stopping rule stays
    honest for the near-certain rates that dominate high-SNR points.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ConfigurationError(
            f"invalid binomial counts: {successes}/{trials}"
        )
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denominator
    half = (z / denominator) * math.sqrt(
        phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)
    )
    # Clamp to [0, 1] and absorb roundoff so the interval always
    # brackets the point estimate (center +/- half can land a few ulp
    # inside phat at the 0/1 boundaries).
    return (
        min(max(0.0, center - half), phat),
        max(min(1.0, center + half), phat),
    )


class RateEstimator:
    """Sequential Wilson-interval tracker for a Bernoulli rate.

    ``extract`` outcomes are folded in as successes (truthy) or
    failures (falsy, including ``None`` rows from skipped trials);
    every trial is an observation.  Convergence compares the interval
    half-width against ``rel_precision * max(p, 1 - p)`` — relative to
    the *larger* side of the rate, so a 0.97 success rate and a 0.03
    error rate (the same physical point, reported either way) converge
    after the same number of trials.
    """

    kind = "rate"

    def __init__(self, z: float = 1.959963984540054):
        self.z = z
        self.successes = 0
        self.observations = 0

    def add(self, values: List[Any]) -> None:
        """Fold one chunk of extracted outcomes into the counts."""
        self.observations += len(values)
        self.successes += sum(1 for value in values if value)

    @property
    def estimate(self) -> float:
        """The point estimate ``successes / observations`` (NaN empty)."""
        if self.observations == 0:
            return float("nan")
        return self.successes / self.observations

    def interval(self) -> Tuple[float, float]:
        """The current Wilson confidence interval."""
        return wilson_interval(self.successes, self.observations, self.z)

    def half_width(self) -> float:
        """Half the current interval's width (inf while empty)."""
        if self.observations == 0:
            return float("inf")
        low, high = self.interval()
        return (high - low) / 2.0

    def converged(self, rel_precision: float) -> bool:
        """Whether the interval meets the target relative precision."""
        if self.observations == 0:
            return False
        p = self.estimate
        scale = max(p, 1.0 - p)
        return self.half_width() <= rel_precision * scale


class MeanEstimator:
    """Welford running mean/variance with a normal-approximation CI.

    Non-``None`` extracted values stream through Welford's single-pass
    update (numerically stable — no sum-of-squares cancellation);
    ``None`` rows (receptions that never reached the defense) are
    spent trials but not observations, matching how the fixed-budget
    drivers filter them.  Convergence compares the half-width
    ``z * s / sqrt(n)`` against ``rel_precision * |mean|``.
    """

    kind = "mean"

    def __init__(self, z: float = 1.959963984540054):
        self.z = z
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, values: List[Any]) -> None:
        """Fold one chunk of extracted values (``None`` rows skipped)."""
        for value in values:
            if value is None:
                continue
            self.count += 1
            delta = float(value) - self.mean
            self.mean += delta / self.count
            self._m2 += delta * (float(value) - self.mean)

    @property
    def estimate(self) -> float:
        """The running mean (NaN while no observation arrived)."""
        if self.count == 0:
            return float("nan")
        return self.mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (inf until two observations)."""
        if self.count < 2:
            return float("inf")
        return self._m2 / (self.count - 1)

    def half_width(self) -> float:
        """Half-width of the normal-approximation interval."""
        if self.count < 2:
            return float("inf")
        return self.z * math.sqrt(self.variance / self.count)

    def interval(self) -> Tuple[float, float]:
        """The current confidence interval around the running mean."""
        if self.count == 0:
            return float("nan"), float("nan")
        half = self.half_width()
        return self.mean - half, self.mean + half

    def converged(self, rel_precision: float) -> bool:
        """Whether the interval meets the target relative precision."""
        if self.count < 2:
            return False
        scale = abs(self.mean)
        if scale == 0.0:
            return self.half_width() == 0.0
        return self.half_width() <= rel_precision * scale


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive allocator.

    Attributes:
        rel_precision: target relative half-width of each point's
            confidence interval (``--rel-precision``, default 10 %).
        confidence: two-sided confidence level of the intervals.
        min_trials: floor before any stopping decision is trusted.
        chunk_trials: trials per increment between interval checks;
            ``None`` derives ``max(8, base // 8)`` per point so the
            batched fast path still amortizes its per-call overhead.
        max_trials: hard per-point cap reallocation may grow a point
            to (``--max-trials``); ``None`` derives
            ``DEFAULT_MAX_TRIALS_FACTOR * base``.
    """

    rel_precision: float = DEFAULT_REL_PRECISION
    confidence: float = DEFAULT_CONFIDENCE
    min_trials: int = DEFAULT_MIN_TRIALS
    chunk_trials: Optional[int] = None
    max_trials: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_precision < 1.0:
            raise ConfigurationError("rel_precision must be in (0, 1)")
        if not 0.5 < self.confidence < 1.0:
            raise ConfigurationError("confidence must be in (0.5, 1)")
        if self.min_trials < 1:
            raise ConfigurationError("min_trials must be >= 1")
        if self.chunk_trials is not None and self.chunk_trials < 1:
            raise ConfigurationError("chunk_trials must be >= 1")
        if self.max_trials is not None and self.max_trials < 1:
            raise ConfigurationError("max_trials must be >= 1")

    @property
    def z(self) -> float:
        """The normal quantile matching ``confidence``."""
        return normal_quantile(0.5 + self.confidence / 2.0)

    def resolve_chunk(self, base: int) -> int:
        """Trials per increment for a point with base budget ``base``."""
        if self.chunk_trials is not None:
            return max(1, min(self.chunk_trials, max(base, 1)))
        return max(1, min(max(8, base // 8), max(base, 1)))

    def resolve_cap(self, base: int) -> int:
        """The hard trial cap for a point with base budget ``base``."""
        if self.max_trials is not None:
            return max(self.max_trials, base)
        return DEFAULT_MAX_TRIALS_FACTOR * max(base, 1)

    def fingerprint(self) -> Dict[str, Any]:
        """The checkpoint-fingerprint fragment for adaptive sweeps.

        Any knob that changes which trials run must split the
        checkpoint namespace, or a resumed sweep could splice points
        collected under different stopping rules.
        """
        return {
            "rel_precision": self.rel_precision,
            "confidence": self.confidence,
            "min_trials": self.min_trials,
            "chunk_trials": self.chunk_trials,
            "max_trials": self.max_trials,
        }


@dataclass
class AdaptivePointOutcome:
    """Everything a driver needs to build a settled point's row."""

    results: List[Any]
    trials_used: int
    converged: bool
    capped: bool
    estimate: float
    ci_low: float
    ci_high: float

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly stats for checkpoints and result rows."""
        return {
            "trials_used": self.trials_used,
            "converged": self.converged,
            "capped": self.capped,
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


@dataclass
class AdaptivePointState:
    """One adaptive sweep point: its open trial stream and estimator."""

    key: str
    stream: IncrementalRun
    estimator: Any
    extract: Callable[[Any], Any]
    base: int
    converged: bool = False
    capped: bool = False
    _settled: bool = field(default=False, repr=False)

    def observe(self, rows: List[Any]) -> None:
        """Fold freshly executed rows into the estimator."""
        self.estimator.add([self.extract(row) for row in rows])

    def outcome(self) -> AdaptivePointOutcome:
        """The settled point's estimate, interval, and raw results."""
        if not self._settled:
            raise ConfigurationError(
                f"adaptive point {self.key!r} read before AdaptiveSweep."
                f"settle(); register every point first, then settle"
            )
        low, high = self.estimator.interval()
        return AdaptivePointOutcome(
            results=list(self.stream.results),
            trials_used=self.stream.trials,
            converged=self.converged,
            capped=self.capped,
            estimate=self.estimator.estimate,
            ci_low=float(low),
            ci_high=float(high),
        )


class AdaptiveSweep:
    """Budget-reallocating adaptive executor over one sweep's points.

    Two passes:

    1. :meth:`point` runs each registered point immediately, in chunks,
       stopping at convergence or at the point's base budget — never
       above it, so pass 1 can only *save* trials;
    2. :meth:`settle` grants the saved trials to the points that did
       not converge, chunk by chunk in registration order (deterministic
       round-robin), until each converges, hits its hard cap, or the
       pool runs dry.

    The savings accounting is exact: ``trials_executed`` never exceeds
    ``trials_base`` (the fixed-budget total of the registered points),
    and the difference is what the sweep's ``engine.trials_saved``
    counter reports.

    Args:
        session: an open :class:`EngineSession` the trials run on.
        base_trials: default per-point budget (the fixed-budget
            ``trials`` the sweep would otherwise spend).
        config: stopping-rule knobs; defaults throughout.
        experiment: experiment id stamped on ``point_converged`` events.
    """

    def __init__(
        self,
        session: EngineSession,
        base_trials: int,
        config: Optional[AdaptiveConfig] = None,
        experiment: str = "sweep",
    ):
        if base_trials < 1:
            raise ConfigurationError("base_trials must be >= 1")
        self._session = session
        self._experiment = experiment
        self.config = config or AdaptiveConfig()
        self.base_trials = int(base_trials)
        self.saved = 0
        self._points: List[AdaptivePointState] = []
        self._settled = False

    # -- estimator factories ------------------------------------------

    def rate_estimator(self) -> RateEstimator:
        """A Wilson-interval rate tracker at this sweep's confidence."""
        return RateEstimator(z=self.config.z)

    def mean_estimator(self) -> MeanEstimator:
        """A Welford mean tracker at this sweep's confidence."""
        return MeanEstimator(z=self.config.z)

    # -- accounting ----------------------------------------------------

    @property
    def trials_base(self) -> int:
        """Fixed-budget trial total of every registered point."""
        return sum(state.base for state in self._points)

    @property
    def trials_executed(self) -> int:
        """Trials actually executed across every registered point."""
        return sum(state.stream.trials for state in self._points)

    @property
    def trials_saved(self) -> int:
        """Net trials the adaptive rule saved versus the fixed budget."""
        return self.trials_base - self.trials_executed

    # -- pass 1: per-point sequential estimation ----------------------

    def point(
        self,
        trial: TrialFn,
        rng: RngLike = None,
        static_args: Tuple[Any, ...] = (),
        estimator: Any = None,
        extract: Callable[[Any], Any] = lambda row: row,
        key: str = "",
        base: Optional[int] = None,
    ) -> AdaptivePointState:
        """Register and run one sweep point up to its base budget.

        Args:
            trial: the engine trial function (one row per generator).
            rng: the point's stream source — the same one the
                fixed-budget driver hands ``session.run``, so the
                executed prefix stays bit-identical.
            static_args: per-point parameters passed to every trial.
            estimator: a :class:`RateEstimator` or
                :class:`MeanEstimator` (default: mean).
            extract: maps one raw trial result to the estimator's
                observation (rate: truthy/falsy; mean: float or
                ``None`` to skip).
            key: point label for events and error messages.
            base: per-point budget override (default: the sweep's
                ``base_trials``).
        """
        if self._settled:
            raise ConfigurationError(
                "AdaptiveSweep.settle() already ran; open a new sweep"
            )
        budget = self.base_trials if base is None else int(base)
        if budget < 1:
            raise ConfigurationError("point budget must be >= 1")
        state = AdaptivePointState(
            key=key,
            stream=self._session.run_until(trial, rng, static_args),
            estimator=estimator if estimator is not None
            else self.mean_estimator(),
            extract=extract,
            base=budget,
        )
        chunk = self.config.resolve_chunk(budget)
        while state.stream.trials < budget:
            step = min(chunk, budget - state.stream.trials)
            state.observe(state.stream.extend(step))
            if (
                state.stream.trials >= min(self.config.min_trials, budget)
                and state.estimator.converged(self.config.rel_precision)
            ):
                state.converged = True
                break
        self.saved += budget - state.stream.trials
        self._points.append(state)
        return state

    # -- pass 2: reallocation ------------------------------------------

    def settle(self) -> None:
        """Spend the saved trials on unconverged points, then account.

        Grants go chunk by chunk in registration order so every pass is
        deterministic; a point leaves the rotation when it converges,
        reaches its hard cap, or the pool empties.  Afterwards each
        point's stats land on the telemetry plane: one
        ``point_converged`` event per point plus the sweep-level
        ``engine.trials_saved`` / ``engine.points_capped`` counters.
        """
        if self._settled:
            return
        pending = [state for state in self._points if not state.converged]
        while pending and self.saved > 0:
            progressed = False
            for state in list(pending):
                cap = self.config.resolve_cap(state.base)
                if state.stream.trials >= cap:
                    state.capped = True
                    pending.remove(state)
                    continue
                step = min(
                    self.config.resolve_chunk(state.base),
                    cap - state.stream.trials,
                    self.saved,
                )
                if step <= 0:
                    continue
                state.observe(state.stream.extend(step))
                self.saved -= step
                progressed = True
                if state.estimator.converged(self.config.rel_precision):
                    state.converged = True
                    pending.remove(state)
                if self.saved <= 0:
                    break
            if not progressed:
                break
        for state in pending:
            if state.stream.trials >= self.config.resolve_cap(state.base):
                state.capped = True
        self._settled = True
        telemetry = get_telemetry()
        stream = get_event_stream()
        capped_points = 0
        for state in self._points:
            state._settled = True
            if not state.converged:
                capped_points += 1
            low, high = state.estimator.interval()
            stream.point_converged(
                self._experiment,
                state.key,
                trials_used=state.stream.trials,
                trials_saved=state.base - state.stream.trials,
                converged=state.converged,
                estimate=_json_float(state.estimator.estimate),
                ci_low=_json_float(low),
                ci_high=_json_float(high),
            )
        if self.trials_saved > 0:
            telemetry.count("engine.trials_saved", self.trials_saved)
        if capped_points:
            telemetry.count("engine.points_capped", capped_points)


def _json_float(value: float) -> Optional[float]:
    """NaN/inf become ``None`` so event records stay strict JSON."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        return None
    return value
