"""Sequential (multi-packet) attack detection.

A single-packet decision can sit near the threshold when SNR is poor.
Aggregating evidence across consecutive packets from the same transmitter
sharpens the decision exponentially.  This module implements a Wald-style
sequential test over log-likelihood-ratio proxies derived from the
per-packet D_E^2 statistic — an operational extension beyond the paper's
one-shot threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError


class SequentialDecision(enum.Enum):
    """Tri-state outcome of the sequential test."""

    CONTINUE = "continue"
    AUTHENTIC = "H0"
    ATTACK = "H1"


@dataclass
class SequentialState:
    """Running state of one transmitter's sequential test."""

    log_likelihood_ratio: float = 0.0
    packets_observed: int = 0
    history: List[float] = field(default_factory=list)


class SequentialDetector:
    """Wald sequential probability ratio test on per-packet statistics.

    The per-packet D_E^2 is modelled as log-normal under each hypothesis
    (its positive, multiplicative-noise nature makes log-space natural);
    the two distributions are specified by their log-space means and a
    shared log-space standard deviation, all calibratable from training
    data via :meth:`calibrate`.

    Args:
        h0_log_mean / h1_log_mean: log-space means of D_E^2 per class.
        log_std: shared log-space standard deviation.
        false_alarm_rate / miss_rate: target error rates; they set the
            Wald thresholds ``A = (1-beta)/alpha`` and ``B = beta/(1-alpha)``.
    """

    def __init__(
        self,
        h0_log_mean: float,
        h1_log_mean: float,
        log_std: float = 1.0,
        false_alarm_rate: float = 1e-3,
        miss_rate: float = 1e-3,
    ):
        if h1_log_mean <= h0_log_mean:
            raise ConfigurationError(
                "H1 (attack) scores must exceed H0 scores in log-space"
            )
        if log_std <= 0:
            raise ConfigurationError("log_std must be positive")
        for name, rate in (("false_alarm_rate", false_alarm_rate),
                           ("miss_rate", miss_rate)):
            if not 0.0 < rate < 0.5:
                raise ConfigurationError(f"{name} must be in (0, 0.5)")
        self.h0_log_mean = h0_log_mean
        self.h1_log_mean = h1_log_mean
        self.log_std = log_std
        self.upper_threshold = float(np.log((1 - miss_rate) / false_alarm_rate))
        self.lower_threshold = float(np.log(miss_rate / (1 - false_alarm_rate)))

    @classmethod
    def calibrate(
        cls,
        authentic_scores: List[float],
        attack_scores: List[float],
        false_alarm_rate: float = 1e-3,
        miss_rate: float = 1e-3,
    ) -> "SequentialDetector":
        """Fit the log-normal models from training populations."""
        h0 = np.log(np.asarray(authentic_scores, dtype=np.float64) + 1e-12)
        h1 = np.log(np.asarray(attack_scores, dtype=np.float64) + 1e-12)
        if h0.size < 2 or h1.size < 2:
            raise ConfigurationError("need >= 2 training scores per class")
        pooled_std = float(np.sqrt((h0.var(ddof=1) + h1.var(ddof=1)) / 2.0))
        return cls(
            h0_log_mean=float(h0.mean()),
            h1_log_mean=float(h1.mean()),
            log_std=max(pooled_std, 1e-3),
            false_alarm_rate=false_alarm_rate,
            miss_rate=miss_rate,
        )

    def log_likelihood_ratio(self, score: float) -> float:
        """LLR contribution of one packet's D_E^2."""
        if score <= 0:
            score = 1e-12
        x = np.log(score)
        h0 = -((x - self.h0_log_mean) ** 2)
        h1 = -((x - self.h1_log_mean) ** 2)
        return float((h1 - h0) / (2.0 * self.log_std**2))

    def update(self, state: SequentialState, score: float) -> SequentialDecision:
        """Fold one packet's statistic into the running test.

        A non-finite score fails closed: it returns ``ATTACK`` at once and
        stays out of the running sum, which would otherwise turn NaN and
        never cross either threshold again.
        """
        state.packets_observed += 1
        state.history.append(score)
        if not np.isfinite(score):
            return SequentialDecision.ATTACK
        state.log_likelihood_ratio += self.log_likelihood_ratio(score)
        if state.log_likelihood_ratio >= self.upper_threshold:
            return SequentialDecision.ATTACK
        if state.log_likelihood_ratio <= self.lower_threshold:
            return SequentialDecision.AUTHENTIC
        return SequentialDecision.CONTINUE

    def run(self, scores: List[float]) -> tuple:
        """Feed scores until a decision fires; returns (decision, count).

        Returns ``(CONTINUE, len(scores))`` if the evidence never crossed
        either threshold.
        """
        state = SequentialState()
        for score in scores:
            decision = self.update(state, score)
            if decision is not SequentialDecision.CONTINUE:
                return decision, state.packets_observed
        return SequentialDecision.CONTINUE, state.packets_observed
