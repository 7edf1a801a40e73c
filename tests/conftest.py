"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from specbound import estimators
from specbound.quadform import envelope_tail, hermitian_spectral_norms
from specbound.signals import PHI_GRID_POINTS


def random_estimator_spec(rng: np.random.Generator, max_samples: int = 128):
    """Draw one valid (spec, num_samples) pair across all five families."""
    family = rng.integers(0, 5)
    if family == 0:
        return estimators.BiasedPeriodogram(), int(rng.integers(2, max_samples + 1))
    if family == 1:
        return estimators.UnbiasedPeriodogram(), int(rng.integers(2, max_samples + 1))
    if family == 2:
        n = int(rng.integers(4, max_samples + 1))
        half_width = int(rng.integers(1, n + 1))
        window = str(rng.choice(estimators.WINDOW_KINDS))
        return estimators.BlackmanTukey(half_width, window), n
    if family == 3:
        block = int(rng.integers(1, 17))
        blocks = int(rng.integers(1, max(2, max_samples // max(block, 1)) + 1))
        return estimators.Bartlett(block), block * blocks
    segment = int(rng.integers(2, 33))
    hop = int(rng.integers(1, segment + 1))
    segments = int(rng.integers(1, 9))
    taper = str(rng.choice(estimators.WINDOW_KINDS))
    if segment == 2 and taper in ("hann", "triangular", "blackman"):
        taper = "rectangular"  # those tapers vanish identically at length two
    return estimators.Welch(segment, hop, taper), (segments - 1) * hop + segment


def sequential_geometric_bias_bound(bias, truncation, gamma, rho):
    """The bias bound summed one lag at a time, from the most negative lag up; b[k] is stored at |k|."""
    h = bias.half_width

    def at(k):
        return 0.0 if abs(int(k)) >= h else float(bias.values[abs(int(k))])

    # numpy integer lags, so rho ** |k| is numpy's scalar power
    lags = np.arange(-(truncation - 1), truncation)
    return float(gamma * sum(abs(1.0 - at(k)) * rho ** abs(k) for k in lags) + envelope_tail(gamma, rho, truncation))


def full_grid_phi_inf(model):
    """``grid_phi_inf``'s bound with the spectrum and its norm evaluated at every grid point."""
    freqs = np.linspace(-0.5, 0.5, PHI_GRID_POINTS)
    grid_max = float(hermitian_spectral_norms(model.psd_grid(freqs)).max())
    spacing = 1.0 / (PHI_GRID_POINTS - 1)
    return min(model.r1_norm(), grid_max + math.pi * spacing * model.lag_moment())


def index_arithmetic_matrix(spec, n):
    """A Toeplitz family's dense coefficient matrix, every entry indexed by N^2 integer lag arithmetic.

    The reference for the lag-vector views of ``matrix(n)``: the same IEEE
    operation per entry, entry (i, j) read at lag i - j.
    """
    if isinstance(spec, estimators.BiasedPeriodogram):
        return np.full((n, n), 1.0 / n)
    diff = np.subtract.outer(np.arange(n), np.arange(n))
    if isinstance(spec, estimators.UnbiasedPeriodogram):
        return 1.0 / (n - np.abs(diff))
    m = spec.half_width
    wide = np.zeros(2 * n - 1)
    wide[n - m : n + m - 1] = spec.weights()
    return wide[diff + n - 1] / n
