"""Acceptance suite: one test per criterion, each printing a pass line.

Every criterion pins its tolerance here; runtime limits are asserted with the
stated budgets.
"""

import math
import time

import numpy as np
import pytest

from specbound import bounds as bd
from specbound import constants as ct
from specbound import estimators as est
from specbound import quadform as qf
from specbound import signals as sig
from specbound.constants import GAUSSIAN, sub_gaussian
from specbound.experiments import ReproduceOptions, run_reproduce, run_verify_concentration, trial_errors

from conftest import random_estimator_spec


def _report(number: int, label: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f}s budget ({elapsed:.1f}s)"
    print(f"criterion {number} ({label}): PASS in {elapsed:.1f}s (budget {limit:.0f}s)")


def _read_sweep(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, (float(x) for x in line.split(",")))) for line in lines[2:]]
    return rows


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    grid = qf.frequency_grid(33, full_range=True)
    worst = 0.0
    for channels in (1, 2, 3):
        for samples in (8, 16, 64):
            data = qf.DataMatrix(rng.standard_normal((channels, samples)))
            specs = [
                est.BiasedPeriodogram(),
                est.UnbiasedPeriodogram(),
                est.BlackmanTukey(max(2, samples // 4), "hann"),
                est.BlackmanTukey(samples // 2, "rectangular"),
                est.Bartlett(samples // 2),
                est.Bartlett(samples // 4) if samples >= 16 else est.Bartlett(2),
                est.Welch(samples // 2, samples // 4, "hann"),
                est.Welch(samples // 2, samples // 2, "rectangular"),
            ]
            for spec in specs:
                fast = est.evaluate_fast(spec, data, grid)
                generic = qf.evaluate_generic_grid(data, est.build_matrix(spec, samples), grid)
                worst = max(worst, float(np.abs(fast.matrices - generic.matrices).max()))
    assert worst < 1e-10, f"fast vs generic deviation {worst:.2e}"
    _report(1, "oracle equivalence", started, 10.0)


def test_criterion_2_bias_coefficient_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        spec, samples = random_estimator_spec(rng, max_samples=128)
        closed = est.closed_form_bias(spec, samples)
        brute = qf.bias_coefficients(est.build_matrix(spec, samples))
        worst = max(worst, float(np.abs(closed.values - brute.values).max()))
    assert worst <= 1e-12, f"closed-form vs diagonal-sum deviation {worst:.2e}"
    _report(2, "bias-coefficient identity", started, 5.0)


def test_criterion_3_norm_envelopes():
    started = time.perf_counter()
    cases = [
        (est.BlackmanTukey(16, "hann"), 512),
        (est.BlackmanTukey(63, "rectangular"), 256),
        (est.BlackmanTukey(8, "hamming"), 128),
        (est.Bartlett(8), 512),
        (est.Bartlett(32), 512),
        (est.Bartlett(16), 256),
        (est.Welch(32, 16, "hann"), 512),
        (est.Welch(16, 4, "triangular"), 256),
        (est.Welch(24, 24, "rectangular"), 480),
    ]
    for spec, samples in cases:
        params = est.certificate_params(spec, samples)
        form = est.build_matrix(spec, samples)
        if isinstance(spec, est.Bartlett):
            assert abs(form.spectral_norm - params.envelope) <= 1e-9
            assert abs(form.frobenius_norm ** 2 - params.envelope) <= 1e-9
        else:
            assert form.spectral_norm <= params.envelope + 1e-9
            assert form.frobenius_norm ** 2 <= params.envelope + 1e-9
        for k in range(samples):
            entries = np.diagonal(form.matrix, k)
            assert np.abs(entries).max() <= params.envelope + 1e-9
            assert entries @ entries <= params.envelope + 1e-9
    _report(3, "norm envelopes", started, 30.0)


def test_criterion_4_certificate_validity():
    started = time.perf_counter()
    model = sig.WhiteNoise(1)
    ctx = bd.BoundContext.from_model(model, GAUSSIAN)
    spec = est.Bartlett(16)
    samples, delta, trials = 4096, 0.2, 300
    params = est.certificate_params(spec, samples)
    concentration = bd.worst_case_error_bound(params, delta, ctx).value
    bias = bd.geometric_bias_bound(
        est.closed_form_bias(spec, samples), params.truncation, 1.0, 0.0
    ).value
    total = concentration + bias
    errors = trial_errors(model, "gaussian", spec, samples, qf.frequency_grid(101), trials, 5150, 0)
    exceedances = int((errors.max(axis=1) > total).sum())
    frequency = exceedances / trials
    allowed = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    assert frequency <= allowed, f"exceedance {frequency:.3f} above {allowed:.3f}"
    _report(4, "certificate validity", started, 300.0)


def test_criterion_5_hanson_wright_never_violated(tmp_path):
    started = time.perf_counter()
    path, reports = run_verify_concentration(tmp_path, trials=100_000, seed=424242)
    assert len(reports) == 4
    for key, report in reports.items():
        assert not report.flagged, f"suite {key} flagged a proven bound"
        assert len(report.rows) == 20
    assert path.exists()
    _report(5, "quadratic-form tails never violated", started, 120.0)


def test_criterion_6_scalar_study_reproduction(tmp_path):
    started = time.perf_counter()
    run_reproduce(1, tmp_path, ReproduceOptions(trials=100, seed=20240311))
    gaussian = _read_sweep(tmp_path / "example1_gaussian.csv")
    subgaussian = _read_sweep(tmp_path / "example1_subgaussian.csv")
    for rows in (gaussian, subgaussian):
        assert len(rows) == 5
        for row in rows:
            assert row["certificate"] >= row["empirical_max"]
    for gauss_row, sub_row in zip(gaussian, subgaussian):
        gauss_gap = gauss_row["certificate"] / gauss_row["empirical_mean"]
        sub_gap = sub_row["certificate"] / sub_row["empirical_mean"]
        assert 10.0 <= gauss_gap <= 1000.0, f"gaussian gap {gauss_gap:.1f} at {gauss_row['blocks']:.0f} blocks"
        assert sub_gap > gauss_gap
    _report(6, "scalar-process study", started, 600.0)


def test_criterion_7_state_space_study_reproduction(tmp_path):
    started = time.perf_counter()
    options = ReproduceOptions(trials=100, seed=20240311, rho_target=0.5)
    run_reproduce(2, tmp_path, options)
    model = sig.StateSpace(
        [[0.3, 0.0], [1.0, 0.3]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        np.eye(3),
        rho_target=0.5,
    )
    certificate = sig.certify_decay(model, 0.5)
    stack = model.autocov_stack(64)
    for lag in range(65):
        norm = float(np.linalg.norm(stack[lag], 2))
        assert norm <= certificate.gamma * certificate.rho ** lag + 1e-12
    rows = _read_sweep(tmp_path / "example2.csv")
    assert len(rows) == 5
    for row in rows:
        assert row["bias_bound"] >= row["exact_bias"]
        assert row["certificate"] >= row["empirical_max"]
    _report(7, "state-space study", started, 300.0)


def test_criterion_8_block_length_rate_law():
    started = time.perf_counter()
    rho = 0.7
    phi = (1.0 + rho) / (1.0 - rho)
    ctx = bd.BoundContext(GAUSSIAN, phi, phi, 1, decay=(1.0, rho))
    ns = [2 ** k for k in range(9, 19)]
    selections = [bd.optimize_bartlett_m(n, 0.05, ctx, divisors_only=False) for n in ns]
    block_slope = float(np.polyfit(np.log(ns), np.log([s.block_length for s in selections]), 1)[0])
    bound_slope = float(np.polyfit(np.log(ns), np.log([s.bound for s in selections]), 1)[0])
    assert 0.23 <= block_slope <= 0.43, f"block-length slope {block_slope:.3f}"
    assert -0.43 <= bound_slope <= -0.23, f"bound slope {bound_slope:.3f}"
    _report(8, "block-length rate law", started, 60.0)


def test_criterion_9_constants_regression():
    started = time.perf_counter()
    assert (ct.GAUSSIAN_TAIL_MULTIPLIER, ct.GAUSSIAN_TAIL_RATE) == (2.0, 1.0 / 32.0)
    assert (ct.SUBGAUSSIAN_TAIL_MULTIPLIER, ct.SUBGAUSSIAN_TAIL_RATE) == (4.0, 2.0 ** -19)
    gauss = GAUSSIAN
    assert (gauss.multiplier, gauss.rate, gauss.scale) == (2.0, 1.0 / 32.0, 1.0)
    sigma = math.sqrt(3.0)
    sub = sub_gaussian(sigma)
    assert (sub.multiplier, sub.rate, sub.scale) == (4.0, 2.0 ** -19, sigma)
    assert ct.HANSON_WRIGHT_RATE == 1.0 / 2048.0
    assert ct.GAUSSIAN_QUADFORM_RATE == 1.0 / 8.0
    _report(9, "constants regression", started, 5.0)
