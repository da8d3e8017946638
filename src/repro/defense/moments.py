"""Second- and fourth-order moments and cumulants (Sec. VI-B, Eqs. 5-9).

Sample estimators follow Swami & Sadler; the normalized estimates
``C4q / C21^2`` are compared against the theoretical values of Table III
to recognize the constellation.  For zero-mean complex x:

    C20 = E[x^2]            C21 = E[|x|^2]
    C40 = E[x^4]  - 3 C20^2
    C41 = E[x^3 x*] - 3 C20 C21
    C42 = E[|x|^4] - |C20|^2 - 2 C21^2
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.telemetry import get_telemetry


@dataclass(frozen=True)
class CumulantEstimate:
    """Sample moments/cumulants of one constellation observation.

    Attributes:
        c20, c21: second-order sample moments (noise-corrected when a
            noise variance was supplied).
        c40, c41, c42: fourth-order sample cumulants.
        c40_hat, c41_hat, c42_hat: cumulants normalized by ``c21**2`` —
            the quantities compared with Table III.
        sample_count: number of constellation points used.
    """

    c20: complex
    c21: float
    c40: complex
    c41: complex
    c42: float
    sample_count: int

    @property
    def c40_hat(self) -> complex:
        """C40 normalized by C21^2."""
        return self.c40 / self.c21**2

    @property
    def c41_hat(self) -> complex:
        """C41 normalized by C21^2."""
        return self.c41 / self.c21**2

    @property
    def c42_hat(self) -> float:
        """C42 normalized by C21^2."""
        return float(self.c42 / self.c21**2)


def estimate_cumulants(
    samples: np.ndarray, noise_variance: float = 0.0
) -> CumulantEstimate:
    """Estimate Eqs. (8)-(9) from complex constellation samples.

    Args:
        samples: complex points (output of
            :func:`repro.defense.constellation.reconstruct_constellation`).
        noise_variance: a local estimate of the additive noise power to be
            subtracted from C21 (the paper: "a local estimate of its
            variance has to be obtained and subtracted").  Gaussian noise
            contributes nothing to the fourth-order *cumulants*, so only
            the second-order terms need correction.
    """
    array = np.asarray(samples, dtype=np.complex128)
    return estimate_cumulants_batch(array[np.newaxis, :], [noise_variance])[0]


def estimate_cumulants_batch(
    samples: np.ndarray,
    noise_variances: Optional[Sequence[float]] = None,
) -> List[CumulantEstimate]:
    """Row-wise :func:`estimate_cumulants` over a (batch, points) stack.

    Every moment is an elementwise power followed by a ``mean`` along
    the last axis of a contiguous stack, so a row's estimate does not
    depend on the other rows.  ``noise_variances`` (default zeros) is
    subtracted from each row's C21 exactly as :func:`estimate_cumulants`
    describes.
    """
    array = np.ascontiguousarray(np.asarray(samples, dtype=np.complex128))
    if array.ndim != 2:
        raise ConfigurationError("batch samples must be a 2-D array")
    batch = array.shape[0]
    if array.shape[1] < 4:
        raise ConfigurationError("need at least 4 samples to estimate cumulants")
    if noise_variances is None:
        variances = np.zeros(batch, dtype=np.float64)
    else:
        variances = np.asarray(list(noise_variances), dtype=np.float64)
        if variances.shape != (batch,):
            raise ConfigurationError(
                f"need one noise variance per row, got shape {variances.shape}"
            )
    if np.any(variances < 0):
        raise ConfigurationError("noise_variance must be non-negative")

    with get_telemetry().span("defense.cumulants"):
        # Only the O(points) moment reductions are vectorized; the O(1)
        # cumulant combinations run per row in Python-complex arithmetic,
        # so no ulp can creep in from numpy's (potentially FMA-contracted)
        # array kernels.
        d = array
        m20 = np.mean(d**2, axis=-1)
        m21 = np.mean(np.abs(d) ** 2, axis=-1)
        m40 = np.mean(d**4, axis=-1)
        cubed = d**3
        conj_d = np.conj(d)
        m41 = np.mean(cubed * conj_d, axis=-1)
        m42 = np.mean(np.abs(d) ** 4, axis=-1)

    results: List[CumulantEstimate] = []
    for row in range(batch):
        c20 = complex(m20[row])
        c21 = float(m21[row])
        c40 = complex(m40[row]) - 3.0 * c20**2
        c41 = complex(m41[row]) - 3.0 * c20 * c21
        c42 = float(m42[row]) - abs(c20) ** 2 - 2.0 * c21**2
        # The complex-Gaussian noise contributes 2 sigma^4 to m42 that
        # the '-2 c21^2' term over-removes once c21 is corrected; the
        # classical estimator keeps the uncorrected second-order terms
        # inside the cumulant formulas and corrects only the
        # normalization.
        corrected_c21 = c21 - float(variances[row])
        if corrected_c21 <= 0:
            raise ConfigurationError(
                "noise variance exceeds total power; cannot normalize"
            )
        results.append(
            CumulantEstimate(
                c20=c20,
                c21=corrected_c21,
                c40=c40,
                c41=c41,
                c42=c42,
                sample_count=int(array.shape[1]),
            )
        )
    return results


def _pam_levels(order: int) -> np.ndarray:
    levels = np.arange(-(order - 1), order, 2, dtype=np.float64)
    return levels / np.sqrt(np.mean(levels**2))


def _psk_points(order: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(order) / order
    return np.exp(1j * angles)


def _qam_points(order: int) -> np.ndarray:
    side = int(np.sqrt(order))
    if side * side != order:
        raise ConfigurationError(f"{order}-QAM is not square")
    axis = np.arange(-(side - 1), side, 2, dtype=np.float64)
    grid = axis[:, None] + 1j * axis[None, :]
    points = grid.reshape(-1)
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


@lru_cache(maxsize=1)
def reference_constellations() -> Dict[str, np.ndarray]:
    """Unit-power reference constellations for every Table III row."""
    return {
        "BPSK": _pam_levels(2).astype(np.complex128),
        "QPSK": _psk_points(4),
        "8PSK": _psk_points(8),
        "4PAM": _pam_levels(4).astype(np.complex128),
        "8PAM": _pam_levels(8).astype(np.complex128),
        "16PAM": _pam_levels(16).astype(np.complex128),
        "16QAM": _qam_points(16),
        "64QAM": _qam_points(64),
        "256QAM": _qam_points(256),
    }


def theoretical_cumulants(name: str) -> Tuple[complex, complex, float]:
    """Exact (C20, C40, C42) of a unit-power reference constellation.

    Evaluates the cumulant formulas over the discrete constellation with
    equiprobable points — this regenerates Table III (e.g. QPSK ->
    (0, 1, -1), 64-QAM -> (0, -0.6190, -0.6190)).
    """
    constellations = reference_constellations()
    if name not in constellations:
        raise ConfigurationError(
            f"unknown constellation {name!r}; expected one of "
            f"{sorted(constellations)}"
        )
    points = constellations[name]
    c20 = complex(np.mean(points**2))
    c21 = float(np.mean(np.abs(points) ** 2))
    c40 = complex(np.mean(points**4)) - 3.0 * c20**2
    c42 = (
        float(np.mean(np.abs(points) ** 4))
        - abs(c20) ** 2
        - 2.0 * c21**2
    )
    return c20, c40, c42


def theoretical_table() -> Dict[str, Tuple[complex, complex, float]]:
    """Table III as a dict: name -> (C20, C40, C42) for C21 = 1."""
    return {name: theoretical_cumulants(name) for name in reference_constellations()}


#: The theoretical QPSK feature vector v = [C40, C42] of the defense.
QPSK_FEATURE_VECTOR = np.array([1.0, -1.0])
