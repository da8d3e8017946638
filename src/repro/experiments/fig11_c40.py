"""Fig. 11 — C40 versus SNR: Fig. 10's sweep over the real part of C40-hat.

``run`` is :data:`SPEC` bound to :func:`repro.experiments.sweep.run_sweep`;
see :mod:`repro.experiments.fig10_c42` for the stream layout.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.fig10_c42 import cumulant_spec
from repro.experiments.sweep import run_sweep

SPEC = cumulant_spec("fig11", "11", "c40", 1.0)


run = partial(run_sweep, SPEC)
