"""Adaptive, precision-targeted Monte Carlo trial allocation.

The paper's headline numbers (Tables II/IV/V, Figs. 7, 10-14) are Monte
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
* a stream stops once its interval half-width reaches a target
  *relative precision* (default 10 %) or a hard per-stream cap, and
  the trials it did not spend are **reallocated to streams that did
  not converge** — typically the ones straddling the paper's Q = 0.5
  threshold, exactly where extra precision matters.

This module holds the statistics and the policy knobs: the interval
math, the two estimators, and :class:`AdaptiveConfig`.  The scheduler
that applies them is the single stream loop of
:func:`repro.experiments.sweep.run_sweep`: pass 1 grants each stream
chunks of :meth:`AdaptiveConfig.resolve_chunk` trials until it
converges (after at least :data:`MIN_TRIALS`) or reaches its base
budget; pass 2 grants the saved trials round-robin, in plan order, to
the unconverged streams until each converges, reaches
:meth:`AdaptiveConfig.resolve_cap`, or the savings run dry.

Trials execute through :meth:`EngineSession.run_until`, whose seed
streams are drawn from the same parent generator the fixed-budget path
uses — so the first ``n`` trials of an adaptive run are bit-identical
to a fixed ``n``-trial run at the same seed, and the stopping decisions
themselves are deterministic (they depend only on trial outcomes, never
on the wall clock).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Default target relative half-width of a stream's confidence interval.
DEFAULT_REL_PRECISION = 0.1

#: Two-sided confidence level of every interval.
CONFIDENCE = 0.95

#: Trials a stream must execute before its interval is trusted at all —
#: guards against a lucky first chunk stopping a stream absurdly early.
MIN_TRIALS = 16

#: Default hard cap, as a multiple of the stream's base budget, on how
#: far reallocation may grow an unconverged stream.
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


#: The normal quantile matching :data:`CONFIDENCE`.
CONFIDENCE_Z = normal_quantile(0.5 + CONFIDENCE / 2.0)


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
    """The two user-facing knobs of the adaptive allocator.

    Attributes:
        rel_precision: target relative half-width of each stream's
            confidence interval (``--rel-precision``, default 10 %).
        max_trials: hard per-stream cap reallocation may grow a stream
            to (``--max-trials``); ``None`` derives
            ``DEFAULT_MAX_TRIALS_FACTOR * base``.
    """

    rel_precision: float = DEFAULT_REL_PRECISION
    max_trials: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_precision < 1.0:
            raise ConfigurationError("rel_precision must be in (0, 1)")
        if self.max_trials is not None and self.max_trials < 1:
            raise ConfigurationError("max_trials must be >= 1")

    def resolve_chunk(self, base: int) -> int:
        """Trials per grant for a stream with base budget ``base``.

        ``max(8, base // 8)``, never above the base budget, so the
        batched fast path still amortizes its per-call overhead.
        """
        return max(1, min(max(8, base // 8), max(base, 1)))

    def resolve_cap(self, base: int) -> int:
        """The hard trial cap for a stream with base budget ``base``."""
        if self.max_trials is not None:
            return max(self.max_trials, base)
        return DEFAULT_MAX_TRIALS_FACTOR * max(base, 1)

    def fingerprint(self) -> Dict[str, Any]:
        """The checkpoint-fingerprint fragment for adaptive sweeps.

        Any knob that changes which trials run must split the
        checkpoint namespace, or a resumed sweep could splice streams
        collected under different stopping rules.
        """
        return {
            "rel_precision": self.rel_precision,
            "max_trials": self.max_trials,
        }


def make_estimator(kind: str) -> Any:
    """A fresh ``"rate"`` (Wilson) or ``"mean"`` (Welford) estimator."""
    if kind == "rate":
        return RateEstimator(z=CONFIDENCE_Z)
    if kind == "mean":
        return MeanEstimator(z=CONFIDENCE_Z)
    raise ConfigurationError(
        f"unknown estimator kind {kind!r}; expected 'rate' or 'mean'"
    )
