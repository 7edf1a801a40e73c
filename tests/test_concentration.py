"""Tests for the tail-bound primitives and the Monte Carlo verifier."""

import math

import numpy as np
import pytest

from specbound import concentration as cc
from specbound.constants import GAUSSIAN_QUADFORM, hanson_wright


# ---------------------------------------------------------------- tail bounds


def test_hanson_wright_cap_and_branch_point():
    assert hanson_wright(1.0).tail(0.0, 1.0, 1.0) == 1.0
    # unit norms at eps = 2048: both branches give exponent one
    assert hanson_wright(1.0).tail(2048.0, 1.0, 1.0) == pytest.approx(2.0 / math.e, rel=1e-12)
    with pytest.raises(ValueError):
        hanson_wright(1.0).tail(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        hanson_wright(0.0)
    with pytest.raises(ValueError):
        hanson_wright(1.0).tail(1.0, 0.0, 1.0)


def test_tail_bounds_are_nonincreasing_and_capped():
    grid = np.linspace(0.0, 5e4, 60)
    hw = [hanson_wright(1.0).tail(e, 2.0, 1.5) for e in grid]
    gauss = [GAUSSIAN_QUADFORM.tail(e, 2.0, 1.5) for e in grid]
    for series in (hw, gauss):
        assert all(0.0 <= v <= 1.0 for v in series)
        assert all(a >= b - 1e-15 for a, b in zip(series, series[1:]))
    # positive before the exponent underflows
    assert all(GAUSSIAN_QUADFORM.tail(e, 2.0, 1.5) > 0.0 for e in np.linspace(0.0, 1e3, 20))


def test_gaussian_tail_branch_equality_point():
    # eps^2 / F^2 = eps / S = 8 makes the exponent exactly one
    frob = math.sqrt(8.0) / math.sqrt(2.0)  # eps = sqrt(8 F^2) = 8 S
    spec_norm = 1.0
    eps = 8.0 * spec_norm
    frob = eps / math.sqrt(8.0)
    assert GAUSSIAN_QUADFORM.tail(eps, frob, spec_norm) == pytest.approx(1.0 / math.e, rel=1e-12)
    assert GAUSSIAN_QUADFORM.tail(0.0, 1.0, 1.0) == 1.0


def test_gaussian_tail_dominates_unit_psi2_tail():
    for eps in np.linspace(0.01, 500.0, 40):
        assert GAUSSIAN_QUADFORM.tail(eps, 1.3, 0.8) <= hanson_wright(1.0).tail(eps, 1.3, 0.8)


# ---------------------------------------------------------------- Monte Carlo verifier


def _gaussian_quadform_setup(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim))
    matrix = 0.5 * (raw + raw.T)
    frob = float(np.linalg.norm(matrix))
    spec_norm = float(np.abs(np.linalg.eigvalsh(matrix)).max())
    trace = float(np.trace(matrix))

    def sampler(stream, count):
        return stream.standard_normal((count, dim))

    def statistic(batch):
        return np.einsum("ti,ij,tj->t", batch, matrix, batch) - trace

    return sampler, statistic, frob, spec_norm


def test_monte_carlo_flags_nothing_on_proven_bound():
    sampler, statistic, frob, spec_norm = _gaussian_quadform_setup(4, seed=3)
    grid = np.linspace(0.0, 72.0 * max(frob / math.sqrt(72.0), spec_norm), 12)
    report = cc.monte_carlo_tail_check(
        sampler, statistic, lambda e: GAUSSIAN_QUADFORM.tail(e, frob, spec_norm), grid, 20_000, 5
    )
    assert not report.flagged
    assert len(report.rows) == 12


def test_monte_carlo_zero_statistic():
    report = cc.monte_carlo_tail_check(
        lambda rng, count: rng.standard_normal((count, 2)),
        lambda batch: np.zeros(batch.shape[0]),
        lambda e: 1.0,
        [0.1, 1.0, 10.0],
        10_000,
        7,
    )
    assert all(row.empirical == 0.0 for row in report.rows)


def test_monte_carlo_flags_a_broken_bound():
    # a bound that is too small by construction must be flagged
    sampler, statistic, frob, spec_norm = _gaussian_quadform_setup(4, seed=11)
    report = cc.monte_carlo_tail_check(
        sampler, statistic, lambda e: 1e-6, np.array([0.1]), 10_000, 9
    )
    assert report.flagged


def test_monte_carlo_preconditions():
    with pytest.raises(ValueError):
        cc.monte_carlo_tail_check(
            lambda rng, count: rng.standard_normal(count),
            lambda batch: batch,
            lambda e: 1.0,
            [1.0],
            10,
            0,
        )
    with pytest.raises(ValueError):
        cc.monte_carlo_tail_check(
            lambda rng, count: rng.standard_normal(count),
            lambda batch: np.full(batch.shape[0], np.nan),
            lambda e: 1.0,
            [1.0],
            10_000,
            0,
        )
