"""Tests for the certificate engine."""

import dataclasses
import math

import numpy as np
import pytest

from specbound import bounds as bd
from specbound import estimators as est
from specbound import quadform as qf
from specbound.constants import COVER_BASE, GAUSSIAN, sub_gaussian
from specbound.experiments import example_state_space, trial_errors
from specbound.signals import GeometricScalar, WhiteNoise, certify_decay

from conftest import sequential_geometric_bias_bound


def ctx_gauss(phi=1.0, r1=1.0, channels=1, decay=None, model=None):
    return bd.BoundContext(GAUSSIAN, phi, r1, channels, decay, model)


def record(bound, truncation=1):
    """A certificate record whose both norm bounds are ``bound``, and so its envelope."""
    return qf.CertificateParams(bound, bound, truncation)


@pytest.fixture(scope="module")
def geometric_ctx():
    model = GeometricScalar(0.3)
    return bd.BoundContext.from_model(model, GAUSSIAN)


# ---------------------------------------------------------------- factors


def test_deviation_substitutions():
    # the square-root branch below a unit level, the linear one above it
    assert GAUSSIAN.deviation(0.25, 1.0, 1.0) == pytest.approx(0.5)
    assert GAUSSIAN.deviation(2.0, 1.0, 1.0) == pytest.approx(2.0)
    assert GAUSSIAN.deviation(1.0, 0.25, 3.0) == pytest.approx(1.5)
    assert sub_gaussian(math.sqrt(3.0)).deviation(1.0 / 9.0, 1.0, 1.0) == pytest.approx(1.0)
    # a zero envelope proves a zero deviation
    assert GAUSSIAN.deviation(0.0, 265.0, 2.0) == 0.0
    with pytest.raises(ValueError, match="norm envelope must be nonnegative"):
        GAUSSIAN.deviation(-1e-3, 1.0, 1.0)


def test_budget_value_and_domain():
    # 32 * log(4000) evaluated at high precision
    assert ctx_gauss().budget(0.05) == pytest.approx(32.0 * math.log(4000.0), rel=1e-12)
    assert ctx_gauss().budget(0.05) == pytest.approx(265.4096, abs=1e-3)
    assert ctx_gauss().budget(0.025) > ctx_gauss().budget(0.05)
    for bad in (0.0, 1.0, 1.5, 200.0, -0.1):
        with pytest.raises(ValueError):
            ctx_gauss().budget(bad)
        # the uniform budget halves delta, so it must check delta first
        with pytest.raises(ValueError, match=r"failure probability must lie in \(0, 1\)"):
            ctx_gauss().budget(bad, 8)
    with pytest.raises(ValueError):
        bd.worst_case_error_bound(record(0.01, 8), 1.0, ctx_gauss())
    # the frequency cover adds log(5 T^2) to the budget at delta / 2
    assert ctx_gauss().budget(0.05, 8) == math.log(5.0 * 64.0) + ctx_gauss().budget(0.025)
    with pytest.raises(ValueError):
        ctx_gauss().budget(0.05, 0)


def test_budget_sums_its_log_terms_at_any_channel_count_and_delta():
    # 10^306 * 2 / 0.05 is a finite double, so the float cover gives the same budget
    assert ctx_gauss(channels=153).budget(0.05) == math.log(COVER_BASE ** 306 * 2.0 / 0.05) / GAUSSIAN.rate
    channel_cover = 2.0 * math.log(COVER_BASE) / GAUSSIAN.rate
    tail = (math.log(2.0) - math.log(0.05)) / GAUSSIAN.rate
    for channels in (1, 154, 100000):
        pointwise = ctx_gauss(channels=channels).budget(0.05)
        assert pointwise == pytest.approx(channels * channel_cover + tail, rel=1e-15)
        # the frequency cover log(5 T^2) and the tail at delta / 2
        uniform = ctx_gauss(channels=channels).budget(0.05, 8)
        assert uniform == pytest.approx(pointwise + math.log(5.0 * 64.0) + math.log(2.0) / GAUSSIAN.rate, rel=1e-15)
    # the smallest subnormal delta, whose half rounds to zero
    assert ctx_gauss().budget(5e-324, 8) == pytest.approx(
        channel_cover + math.log(320.0) + (math.log(2.0) - math.log(5e-324) + math.log(2.0)) / GAUSSIAN.rate, rel=1e-15
    )


def test_factor_monotonicity(geometric_ctx):
    # the bounds grow with the norm envelope, so a smaller eps asks for a smaller one
    envelopes = np.geomspace(1e-6, 10.0, 20)
    for evaluator in (bd.pointwise_error_bound, bd.worst_case_error_bound):
        values = [evaluator(record(e, 8), 0.1, geometric_ctx).value for e in envelopes]
        assert all(a < b for a, b in zip(values, values[1:]))
    eps_grid = np.linspace(0.05, 3.0, 20)
    deltas = np.linspace(0.01, 0.99, 20)
    betas = [geometric_ctx.budget(d) for d in deltas]
    assert all(a >= b - 1e-12 for a, b in zip(betas, betas[1:]))
    cutoffs = [bd.tail_cutoff_lag(e, geometric_ctx) for e in eps_grid]
    assert all(a >= b for a, b in zip(cutoffs, cutoffs[1:]))


def test_tail_cutoff_examples(geometric_ctx):
    # 2 * 0.3^m / 0.7 <= 0.05 first holds at m = 4
    assert bd.tail_cutoff_lag(0.1, geometric_ctx) == 4
    white = bd.BoundContext.from_model(WhiteNoise(1), GAUSSIAN)
    assert bd.tail_cutoff_lag(0.5, white) <= 1
    assert bd.tail_cutoff_lag(3.0, white) == 0


def test_tail_cutoff_respects_logarithmic_closed_form():
    # two-sided geometric tail 2 rho^m / (1 - rho) <= eps / 2 solved for m
    for rho in (0.2, 0.5, 0.8):
        model = GeometricScalar(rho)
        ctx = bd.BoundContext.from_model(model, GAUSSIAN)
        for eps in (0.01, 0.1, 0.5):
            cutoff = bd.tail_cutoff_lag(eps, ctx)
            cap = max(0.0, math.log((1.0 - rho) * eps / 4.0) / math.log(rho))
            assert cutoff <= math.ceil(cap)


def test_envelope_without_model_uses_decay():
    ctx = ctx_gauss(decay=(2.0, 0.5))
    assert bd.covariance_tail(ctx, 3) == pytest.approx(2.0 * 2.0 * 0.125 / 0.5)
    bare = ctx_gauss()
    with pytest.raises(ValueError):
        bd.covariance_tail(bare, 3)


# ---------------------------------------------------------------- condition checks


def test_pointwise_condition_threshold():
    ctx = ctx_gauss(phi=2.0)
    ok = bd.check_conditions("pointwise", 1.0, 0.1, ctx, params=record(4.0 / 4096.0))
    assert ok.holds
    no = bd.check_conditions("pointwise", 1.0, 0.1, ctx, params=record(4.0 / 2048.0))
    assert not no.holds


@pytest.mark.parametrize("window", [[0.0], [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]])
def test_an_all_zero_lag_window_is_rejected_and_zero_norm_bounds_meet_the_conditions(window):
    # the zero estimator is rejected when its spec is built; zero norm bounds,
    # which the conditions divide by, still meet them
    with pytest.raises(ValueError, match="lag window must have a nonzero weight"):
        est.BlackmanTukey((len(window) + 1) // 2, window)
    ctx = bd.BoundContext.from_model(GeometricScalar(0.3), GAUSSIAN)
    for part in ("pointwise", "worst_case"):
        assert bd.check_conditions(part, 1.0, 0.1, ctx, params=record(0.0)).holds


def test_a_zero_dense_form_meets_the_concentration_conditions():
    # a zero form has a zero envelope and truncation width 0, which no
    # frequency cover takes; its diagonal sums are zero, far from one, so the
    # bias part and both conjunctions fail
    ctx = bd.BoundContext.from_model(GeometricScalar(0.3), GAUSSIAN)
    form = qf.QuadraticForm(np.zeros((8, 8)))
    assert form.certificate_params.truncation == 0
    verdicts = {part: bd.check_conditions(part, 1.0, 0.1, ctx, form=form) for part in bd.CONDITION_PARTS}
    assert all(verdict.available for verdict in verdicts.values())
    assert [part for part, verdict in verdicts.items() if verdict.holds] == ["pointwise", "worst_case"]
    # the bounds on the same form prove a zero deviation
    params = form.certificate_params
    assert bd.pointwise_error_bound(params, 0.1, ctx).value == 0.0
    assert bd.worst_case_error_bound(params, 0.1, ctx).value == 0.0


def test_pointwise_condition_from_dense_form():
    ctx = ctx_gauss(phi=2.0)
    form = est.build_matrix(est.Bartlett(4), 4096)
    assert bd.check_conditions("pointwise", 1.0, 0.1, ctx, form=form).holds


def test_condition_parts_on_a_dense_form_share_one_diagonal_pass(monkeypatch, geometric_ctx):
    passes = []
    original = qf._diagonal_pass

    def counted(matrix):
        passes.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(qf, "_diagonal_pass", counted)
    form = est.build_matrix(est.Welch(16, 8, "hann"), 136)
    for part in bd.CONDITION_PARTS:
        cert = bd.check_conditions(part, 0.5, 0.05, geometric_ctx, form=form)
        assert isinstance(cert.holds, bool)
    assert passes == [(136, 136)]


def test_bias_condition_all_ones_coefficients():
    model = GeometricScalar(0.3)
    ctx = bd.BoundContext.from_model(model, GAUSSIAN)
    coeffs = qf.BiasCoefficients(np.ones(64))
    cert = bd.check_conditions("bias", 0.1, 0.05, ctx, bias=coeffs)
    assert cert.holds
    tiny = qf.BiasCoefficients(np.ones(2))
    cert = bd.check_conditions("bias", 0.1, 0.05, ctx, bias=tiny)
    assert not cert.holds  # support narrower than the cutoff lag


def test_total_conditions_record_both_accuracies():
    ctx = ctx_gauss(decay=(1.0, 0.0))
    coeffs = qf.BiasCoefficients(np.ones(5))
    cert = bd.check_conditions(
        "worst_total", 0.5, 0.1, ctx, params=record(1e-4, 4), bias=coeffs
    )
    assert cert.holds
    recorded = dict(cert.inputs)
    assert recorded["condition_epsilon"] == 0.5
    assert recorded["conclusion_epsilon"] == 1.0


def test_unknown_part_rejected(geometric_ctx):
    with pytest.raises(ValueError):
        bd.check_conditions("sideways", 0.1, 0.1, geometric_ctx, params=record(0.1))


# ---------------------------------------------------------------- bound evaluators


def test_pointwise_bound_branches():
    ctx = ctx_gauss()
    level_one = 1.0 / ctx.budget(0.05)
    assert bd.pointwise_error_bound(record(level_one), 0.05, ctx).value == pytest.approx(1.0, rel=1e-12)
    small = bd.pointwise_error_bound(record(level_one / 4.0), 0.05, ctx)
    assert small.value == pytest.approx(0.5, rel=1e-12)  # square-root branch
    frozen = bd.pointwise_error_bound(record(1.0 / 1024.0), 0.05, ctx)
    assert frozen.value == pytest.approx(0.5091061296558786, rel=1e-12)


def test_worst_case_bound_value_and_scaling():
    ctx = ctx_gauss()
    frozen = bd.worst_case_error_bound(record(1.0 / 1024.0, 8), 0.05, ctx)
    assert frozen.value == pytest.approx(1.0704821840986267, rel=1e-12)
    # doubling the sample count at fixed truncation halves the level: sqrt(2) shrink
    half = bd.worst_case_error_bound(record(1.0 / 2048.0, 8), 0.05, ctx)
    assert frozen.value / half.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    single = bd.worst_case_error_bound(record(1e-4), 0.05, ctx)
    level = 1e-4 * (math.log(5.0) + ctx.budget(0.025))
    assert single.value == pytest.approx(2.0 * math.sqrt(level), rel=1e-12)


def test_geometric_bias_bound_special_cases():
    zero = qf.BiasCoefficients(np.zeros(1))
    cert = bd.geometric_bias_bound(zero, 1, 2.0, 0.5)
    assert cert.value == pytest.approx(2.0 + 2.0 * 2.0 * 0.5 / 0.5)
    flat = qf.BiasCoefficients(np.array([0.25, 0.0]))
    assert bd.geometric_bias_bound(flat, 2, 1.5, 0.0).value == pytest.approx(1.5 * 0.75)
    with pytest.raises(ValueError):
        bd.geometric_bias_bound(zero, 1, 1.0, 1.0)
    wide = qf.BiasCoefficients(np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        bd.geometric_bias_bound(wide, 1, 1.0, 0.5)


BIAS_SPECS = {
    "biased_periodogram": est.BiasedPeriodogram(),
    "unbiased_periodogram": est.UnbiasedPeriodogram(),
    "blackman_tukey": est.BlackmanTukey(24, "hann"),
    "bartlett": est.Bartlett(16),
    "welch": est.Welch(32, 16, "hann"),
}


@pytest.mark.parametrize("kind", list(BIAS_SPECS))
def test_geometric_bias_bound_equals_sequential_sum(kind):
    spec = BIAS_SPECS[kind]
    for n in (64, 528, 2064):
        bias = est.closed_form_bias(spec, n)
        params = est.certificate_params(spec, n)
        truncation = n if params is None else params.truncation
        # the second truncation reaches past every stored diagonal sum
        for width in (truncation, bias.half_width + 5):
            for rho in (0.0, 0.3, 0.95, 0.995):
                cert = bd.geometric_bias_bound(bias, width, 1.7, rho)
                assert cert.value == sequential_geometric_bias_bound(bias, width, 1.7, rho), (n, width, rho)


def test_long_periodogram_bias_bound_equals_sequential_sum():
    bias = est.closed_form_bias(est.BiasedPeriodogram(), 65536)
    cert = bd.geometric_bias_bound(bias, 65536, 1.0, 0.95)
    assert cert.value == sequential_geometric_bias_bound(bias, 65536, 1.0, 0.95)


UNDERFLOW_RHOS = (0.0, 1e-300, 0.3, 0.5, 0.9, 1.0 - 1e-6)


@pytest.mark.parametrize("truncation", [1, 2, 3, 2064, 65536])
def test_bias_bound_stopped_at_the_underflow_equals_sequential_sum(truncation):
    bias = est.closed_form_bias(est.BiasedPeriodogram(), truncation)
    for rho in UNDERFLOW_RHOS:
        cert = bd.geometric_bias_bound(bias, truncation, 1.0, rho)
        assert cert.value == sequential_geometric_bias_bound(bias, truncation, 1.0, rho), rho


@pytest.mark.parametrize("truncation", [1, 2, 3, 2064, 65536])
def test_powers_past_the_underflow_are_zero(truncation):
    for rho in UNDERFLOW_RHOS:
        width = bd._power_width(rho, truncation)
        full = rho ** np.arange(truncation, dtype=float)
        short = rho ** np.arange(width, dtype=float)
        assert 1 <= width <= truncation and short.tobytes() == full[:width].tobytes(), rho
        assert not np.any(full[width:]), rho
    # the summed lags stop where the power underflows
    assert bd._power_width(0.3, 65536) < 700 and bd._power_width(1.0 - 1e-6, 65536) == 65536


def test_bias_bounds_dominate_exact_bias():
    # both the generic sum and the closed form upper-bound the exact bias
    model = GeometricScalar(0.3)
    grid = qf.frequency_grid(1001)
    for m in (1, 2, 4, 8, 16):
        n = 16 * m
        coeffs = est.closed_form_bias(est.Bartlett(m), n)
        exact = qf.exact_bias_sup(coeffs, model, grid)
        part = bd.geometric_bias_bound(coeffs, m, 1.0, 0.3).value
        closed = bd.bartlett_bias_closed_form(1.0, 0.3, m)
        assert part >= exact - 1e-12
        assert closed >= exact - 1e-12


def test_data_driven_bound_rules():
    assert bd.data_driven_error_bound(0.0, 0.3, 5.0).value == pytest.approx(0.3)
    assert bd.data_driven_error_bound(0.5, 0.0, 1.0).value == pytest.approx(1.0)
    off = bd.data_driven_error_bound(1.0, 0.1, 1.0)
    assert not off.available and off.value is None
    with pytest.raises(ValueError):
        bd.data_driven_error_bound(-0.1, 0.0, 1.0)


def test_data_driven_factor_matches_worst_bound():
    ctx = ctx_gauss(phi=3.5)
    factor = bd.data_driven_factor(record(1e-3, 16), 0.1, ctx)
    bound = bd.worst_case_error_bound(record(1e-3, 16), 0.1, ctx).value
    assert factor == pytest.approx(bound / 3.5, rel=1e-12)


def test_bound_condition_round_trip():
    # each concentration condition holds at its bound and fails just below it
    rng = np.random.default_rng(8)
    for _ in range(100):
        assumption = GAUSSIAN if rng.random() < 0.5 else sub_gaussian(1.0 + 3.0 * rng.random())
        ctx = bd.BoundContext(
            assumption, 10.0 ** rng.uniform(-1, 1), 1.0, int(rng.integers(1, 4))
        )
        params = record(10.0 ** rng.uniform(-5, 1), int(rng.integers(1, 64)))
        delta = rng.uniform(0.01, 0.5)
        for part, evaluator in (("pointwise", bd.pointwise_error_bound), ("worst_case", bd.worst_case_error_bound)):
            eps_star = evaluator(params, delta, ctx).value
            assert bd.check_conditions(part, eps_star, delta, ctx, params=params).holds
            assert not bd.check_conditions(part, eps_star * (1.0 - 1e-9), delta, ctx, params=params).holds


def data_matrix_tail(eps, spectral_norm, frobenius_norm, phi_inf, channels, constants):
    """Tail of ||Y J Y' - E||_2 for a stationary data matrix, as written in ``constants``."""
    scale2 = constants.scale ** 2
    exponent = constants.rate * min(
        eps * eps / (scale2 ** 2 * frobenius_norm ** 2 * phi_inf ** 2), eps / (scale2 * spectral_norm * phi_inf)
    )
    return min(1.0, COVER_BASE ** (2 * channels) * constants.multiplier * math.exp(-exponent))


def test_data_matrix_tail_inverts_pointwise_condition():
    rng = np.random.default_rng(17)
    for _ in range(100):
        assumption = GAUSSIAN if rng.random() < 0.5 else sub_gaussian(1.0 + 2.0 * rng.random())
        phi = 10.0 ** rng.uniform(-1.0, 1.0)
        channels = int(rng.integers(1, 4))
        ctx = bd.BoundContext(assumption, phi, 1.0, channels)
        xi = 10.0 ** rng.uniform(-5.0, 0.0)
        delta = rng.uniform(0.01, 0.5)
        eps_star = bd.pointwise_error_bound(record(xi), delta, ctx).value
        tail = data_matrix_tail(eps_star, xi, math.sqrt(xi), phi, channels, assumption)
        assert tail == pytest.approx(delta, rel=1e-9)
        cover = COVER_BASE ** (2 * channels)
        assert assumption.tail(eps_star, math.sqrt(xi), xi, phi, cover) == pytest.approx(tail, rel=0.0, abs=1e-15)


def test_sub_gaussian_scale_below_one_is_rejected():
    with pytest.raises(ValueError, match="sub-gaussian scale must be at least one"):
        sub_gaussian(0.5)


def test_gaussian_certificates_beat_subgaussian_at_unit_scale():
    gauss = ctx_gauss()
    sub = bd.BoundContext(sub_gaussian(1.0), 1.0, 1.0, 1)
    for delta in np.linspace(0.01, 0.95, 25):
        assert gauss.budget(delta) < sub.budget(delta)
        assert (
            bd.pointwise_error_bound(record(1e-3), delta, gauss).value
            < bd.pointwise_error_bound(record(1e-3), delta, sub).value
        )


# ---------------------------------------------------------------- estimator conditions


def test_block_average_bias_condition_white_noise():
    ctx = bd.BoundContext.from_model(WhiteNoise(1), GAUSSIAN)
    for m in (1, 2, 8):
        cert = bd.check_estimator_conditions(est.Bartlett(m), 8 * m, "bias", 0.25, 0.1, ctx)
        assert cert.holds


def test_periodogram_conditions(geometric_ctx):
    biased = est.BiasedPeriodogram()
    for part in ("pointwise", "worst_case"):
        cert = bd.check_estimator_conditions(biased, 256, part, 0.5, 0.1, geometric_ctx)
        assert not cert.available
    bias_cert = bd.check_estimator_conditions(biased, 4096, "bias", 0.5, 0.1, geometric_ctx)
    assert bias_cert.holds
    unbiased = est.UnbiasedPeriodogram()
    cutoff = bd.tail_cutoff_lag(0.5, geometric_ctx)
    holds = bd.check_estimator_conditions(unbiased, cutoff, "bias", 0.5, 0.1, geometric_ctx)
    assert holds.holds
    fails = bd.check_estimator_conditions(unbiased, cutoff - 1, "bias", 0.5, 0.1, geometric_ctx)
    assert not fails.holds


def test_unbiased_periodogram_bias_through_generic_condition(geometric_ctx):
    n = 64
    coeffs = est.closed_form_bias(est.UnbiasedPeriodogram(), n)
    cert = bd.check_conditions("bias", 0.2, 0.1, geometric_ctx, bias=coeffs)
    assert cert.holds  # all diagonal sums equal one out to the sample count


def test_rectangular_welch_matches_block_average_conditions(geometric_ctx):
    # identical diagonal sums, so both the generic and the estimator-specific
    # bias verdicts coincide
    m = 8
    for eps in (0.05, 0.1, 0.3, 0.8, 2.0):
        welch_bias = est.closed_form_bias(est.Welch(m, m, "rectangular"), 4 * m)
        bart_bias = est.closed_form_bias(est.Bartlett(m), 4 * m)
        np.testing.assert_allclose(welch_bias.values, bart_bias.values, atol=1e-14)
        generic_w = bd.check_conditions("bias", eps, 0.1, geometric_ctx, bias=welch_bias)
        generic_b = bd.check_conditions("bias", eps, 0.1, geometric_ctx, bias=bart_bias)
        assert generic_w.holds == generic_b.holds
        spec_w = bd.check_estimator_conditions(est.Welch(m, m, "rectangular"), 4 * m, "bias", eps, 0.1, geometric_ctx)
        spec_b = bd.check_estimator_conditions(est.Bartlett(m), 4 * m, "bias", eps, 0.1, geometric_ctx)
        assert spec_w.holds == spec_b.holds


def test_rectangular_lag_window_condition_reduces_to_lag_budget(geometric_ctx):
    # with unit weights the window condition asks |k| <= N * eps / (2 r1)
    n, m = 64, 16
    spec = est.BlackmanTukey(m, "rectangular")
    for eps in (0.05, 0.2, 0.5, 1.0):
        cert = bd.check_estimator_conditions(spec, n, "bias", eps, 0.1, geometric_ctx)
        cutoff = bd.tail_cutoff_lag(eps, geometric_ctx)
        budget = n * eps / (2.0 * geometric_ctx.r1_norm)
        expected = cutoff <= m and cutoff <= budget + 1e-12 and (cutoff - 1) <= budget
        assert cert.holds == expected


def test_concentration_conditions_match_envelope_rule(geometric_ctx):
    spec = est.Welch(16, 8, "hann")
    n = 136
    params = est.certificate_params(spec, n)
    verdicts = set()
    for eps, delta in [(0.5, 0.1), (2.0, 0.3), (8.0, 0.05), (1e3, 0.1)]:
        for part, evaluator in (("pointwise", bd.pointwise_error_bound), ("worst_case", bd.worst_case_error_bound)):
            cert = bd.check_estimator_conditions(spec, n, part, eps, delta, geometric_ctx)
            bound = evaluator(params, delta, geometric_ctx)
            # the row carries the bound it compares with eps, and the bound's inputs
            assert (cert.value, cert.inputs) == (bound.value, bound.inputs)
            assert cert.holds == (bound.value <= eps)
            verdicts.add(cert.holds)
    assert verdicts == {True, False}



@pytest.mark.parametrize("part", ["pointwise", "worst_case"])
@pytest.mark.parametrize("kind", list(est.FAMILIES))
def test_estimator_concentration_conditions_are_the_general_conditions(kind, part, geometric_ctx):
    n = 136
    cls = est.FAMILIES[kind]
    spec = cls(*(8 for field in dataclasses.fields(cls) if field.default is dataclasses.MISSING))
    params = est.certificate_params(spec, n)
    # both verdicts occur for every family with a concentration certificate
    for eps, delta in [(0.5, 0.1), (8.0, 0.05), (64.0, 0.2), (1e3, 0.1)]:
        cert = bd.check_estimator_conditions(spec, n, part, eps, delta, geometric_ctx)
        assert cert.statement == f"{kind}.{part}_condition"
        if params is None:
            assert not cert.available
            continue
        general = bd.check_conditions(part, eps, delta, geometric_ctx, params=params)
        assert dataclasses.replace(cert, statement=general.statement) == general


@pytest.mark.parametrize("kind", list(est.FAMILIES))
def test_all_estimator_conditions_are_the_parts_one_by_one(kind, geometric_ctx):
    n = 136
    cls = est.FAMILIES[kind]
    spec = cls(*(8 for field in dataclasses.fields(cls) if field.default is dataclasses.MISSING))
    for eps, delta in [(0.05, 0.1), (0.5, 0.1), (8.0, 0.05), (64.0, 0.2), (1e3, 0.1)]:
        parts = [bd.check_estimator_conditions(spec, n, part, eps, delta, geometric_ctx) for part in bd.CONDITION_PARTS]
        assert bd.certificate_suite(spec, n, delta, geometric_ctx, epsilon=eps)[-5:] == parts


# ---------------------------------------------------------------- certificate suite


@pytest.mark.parametrize("kind", list(est.FAMILIES))
def test_certificate_suite_builds_the_record_and_the_sums_once(kind, geometric_ctx, monkeypatch):
    n = 136
    cls = est.FAMILIES[kind]
    spec = cls(*(8 for field in dataclasses.fields(cls) if field.default is dataclasses.MISSING))
    record = cls.certificate_params
    for ctx in (geometric_ctx, ctx_gauss(geometric_ctx.phi_inf, geometric_ctx.r1_norm)):
        expected = bd.certificate_suite(spec, n, 0.1, ctx, epsilon=4.0, estimate_sup=2.0)
        calls = []
        monkeypatch.setattr(cls, "certificate_params", lambda self, size: calls.append("record") or record(self, size))
        monkeypatch.setattr(bd, "closed_form_bias", lambda *args: calls.append("sums") or est.closed_form_bias(*args))
        assert bd.certificate_suite(spec, n, 0.1, ctx, epsilon=4.0, estimate_sup=2.0) == expected
        assert sorted(calls) == ["record", "sums"]
        monkeypatch.undo()


@pytest.mark.parametrize("kind", list(est.FAMILIES))
def test_certificate_suite_rows_follow_the_record_and_the_decay_pair(kind, geometric_ctx):
    # without a decay pair the bias cutoff needs eps / 2 above r1, so that no tail is searched
    n, eps, delta, sup = 136, 4.0, 0.1, 2.0
    cls = est.FAMILIES[kind]
    spec = cls(*(8 for field in dataclasses.fields(cls) if field.default is dataclasses.MISSING))
    params = est.certificate_params(spec, n)
    without_pair = ctx_gauss(geometric_ctx.phi_inf, geometric_ctx.r1_norm)
    for ctx in (geometric_ctx, without_pair):
        rows = bd.certificate_suite(spec, n, delta, ctx, epsilon=eps, estimate_sup=sup)
        by_name = {row.statement: row for row in rows}
        expected = ["pointwise_bound", "worst_case_bound"]
        expected += ["bias_bound_geometric"] if ctx.decay is not None else []
        expected += ["total_worst_bound"] if ctx.decay is not None and params is not None else []
        expected += ["data_driven_bound"] + [f"{kind}.{part}_condition" for part in bd.CONDITION_PARTS]
        assert list(by_name) == expected
        assert by_name["pointwise_bound"] == bd.pointwise_error_bound(params, delta, ctx)
        assert by_name["worst_case_bound"] == bd.worst_case_error_bound(params, delta, ctx)
        assert by_name["pointwise_bound"].available == (params is not None)
        assert rows[-5:] == [bd.check_estimator_conditions(spec, n, part, eps, delta, ctx) for part in bd.CONDITION_PARTS]
        data_driven = by_name["data_driven_bound"]
        if ctx.decay is None or params is None:
            assert not data_driven.available
            assert data_driven.note == "needs a concentration envelope and a decay pair"
        if ctx.decay is None:
            continue
        # without a record the bias sum runs to N
        truncation = n if params is None else params.truncation
        bias = by_name["bias_bound_geometric"]
        assert bias == bd.geometric_bias_bound(est.closed_form_bias(spec, n), truncation, *ctx.decay)
        if params is None:
            continue
        worst = by_name["worst_case_bound"].value
        total = by_name["total_worst_bound"]
        assert (total.value, total.delta) == (worst + bias.value, delta)
        assert total.inputs == (("concentration", worst), ("bias", bias.value))
        assert data_driven == bd.data_driven_error_bound(bd.data_driven_factor(params, delta, ctx), bias.value, sup)
    # no estimate and no accuracy target: no data-driven row and no condition rows
    assert [row.statement for row in bd.certificate_suite(spec, n, delta, without_pair)] == expected[:2]


def test_a_budget_past_the_largest_double_leaves_the_data_driven_bound_unavailable():
    # the factor takes the worst-case bound's budget, which passes the largest double too
    ctx = bd.BoundContext(GAUSSIAN, 2.0, 2.5, 10 ** 307, (1.2, 0.4))
    rows = {row.statement: row for row in bd.certificate_suite(est.Bartlett(4), 16, 0.05, ctx, estimate_sup=1.0)}
    assert rows["worst_case_bound"].note == rows["total_worst_bound"].note == bd._BUDGET_NOTE
    assert rows["data_driven_bound"] == bd.Certificate("data_driven_bound", available=False, note=bd._BUDGET_NOTE)


def test_bounds_names_no_model_class():
    from specbound import signals

    assert [name for name, value in vars(bd).items() if getattr(value, "__module__", "") == signals.__name__] == []


def test_models_give_their_decay_pair_at_a_faster_rate():
    # spectral radius 0.3, certified at 0.5 by default
    chain = example_state_space(0.5)
    assert chain.decay(0.45) == (certify_decay(chain, 0.45).gamma, 0.45)
    for rate in (None, 0.5, 0.7, 0.3, 0.2):
        assert chain.decay(rate) == chain.decay()
    # a model with one proven pair gives it at every rate
    assert GeometricScalar(0.9).decay(0.85) == (1.0, 0.9)
    assert WhiteNoise(2).decay(0.5) == (1.0, 0.0)


# ---------------------------------------------------------------- block-length optimizer


def test_bartlett_closed_form_values():
    assert bd.bartlett_bias_closed_form(1.0, 0.0, 4) == 0.0
    value = bd.bartlett_bias_closed_form(1.0, 0.3, 8)
    expected = 0.6 / (0.49 * 8.0) + 2.0 * (0.09 / 0.49 + 1.0 / 0.7) * 0.3 ** 8
    assert value == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        bd.bartlett_bias_closed_form(1.0, 1.0, 8)


def test_optimizer_returns_best_divisor():
    ctx = ctx_gauss(phi=13.0 / 7.0, r1=13.0 / 7.0, decay=(1.0, 0.3))
    for n in (360, 1024, 4096):
        selection = bd.optimize_bartlett_m(n, 0.05, ctx)
        assert n % selection.block_length == 0
        # exhaustive re-check against an independent evaluation of the objective
        def total(m):
            conc = bd.worst_case_error_bound(record(m / n, m), 0.05, ctx).value
            return conc + bd.bartlett_bias_closed_form(1.0, 0.3, m)

        values = {m: total(m) for m in range(1, n + 1) if n % m == 0}
        best = min(values.values())
        assert selection.bound == pytest.approx(best, rel=1e-12)
        smallest = min(m for m, v in values.items() if v == best)
        assert selection.block_length == smallest


def test_context_rejects_envelope_below_the_model():
    model = GeometricScalar(0.5)
    with pytest.raises(ValueError, match="fails against the model at lag 1$"):
        bd.BoundContext(GAUSSIAN, 3.0, 3.0, 1, decay=(1.0, 0.2), model=model)
    loose = bd.BoundContext(GAUSSIAN, 3.0, 3.0, 1, decay=(2.0, 0.6), model=model)
    assert loose.decay == (2.0, 0.6)
    # this pair holds at lags 0 and 1 and fails later; a per-lag loop over the
    # matrix-power closed form R[k] = C A^(k-1) (A X C' + B D') finds where
    chain = example_state_space(0.5)
    gamma, rho = 30.0, 0.3
    x = chain.state_covariance
    seed = chain.a @ x @ chain.c.T + chain.b @ chain.d.T
    covariances = [chain.c @ x @ chain.c.T + chain.d @ chain.d.T]
    covariances += [chain.c @ np.linalg.matrix_power(chain.a, k - 1) @ seed for k in range(1, 65)]
    first = next(k for k, r in enumerate(covariances) if np.linalg.norm(r, 2) > gamma * rho ** k + 1e-9)
    assert first > 1
    with pytest.raises(ValueError, match=f"fails against the model at lag {first}$"):
        bd.BoundContext(GAUSSIAN, 12.0, 15.0, 3, decay=(gamma, rho), model=chain)


def test_context_rejects_envelope_that_fails_past_lag_64():
    # ||R[k]|| = 0.9^k exceeds 210 * 0.85^k from lag 94 on
    model = GeometricScalar(0.9)
    with pytest.raises(ValueError, match=r"certified envelope \(1\.0, 0\.9\)"):
        bd.BoundContext(GAUSSIAN, 19.0, 19.0, 1, decay=(210.0, 0.85), model=model)
    # the model's own rate needs at least the model's own scale
    with pytest.raises(ValueError, match="certified rate 0.9$"):
        bd.BoundContext(GAUSSIAN, 19.0, 19.0, 1, decay=(1.0 - 1e-12, 0.9), model=model)


def test_context_certifies_a_state_space_model_at_the_users_rate():
    # spectral radius 0.3, certified (20.52, 0.5) by default; at rate 0.45
    # certify_decay gives gamma 28.74, so 30 * 0.45^k is proven at every lag
    chain = example_state_space(0.5)
    assert chain.decay()[1] == 0.5
    assert certify_decay(chain, 0.45).gamma <= 30.0
    assert bd.BoundContext(GAUSSIAN, 12.0, 15.0, 3, decay=(30.0, 0.45), model=chain).decay == (30.0, 0.45)
    # at that rate a scale below the certified one proves nothing
    with pytest.raises(ValueError, match=r"gamma must be at least 28\.7\d* at the certified rate 0\.45$"):
        bd.BoundContext(GAUSSIAN, 12.0, 15.0, 3, decay=(20.0, 0.45), model=chain)


def test_context_rejects_a_rate_at_the_state_space_spectral_radius():
    # ||R[k]|| / 0.3^k grows like k but stays below 1e6 over lags 0..64
    chain = example_state_space(0.5)
    with pytest.raises(ValueError, match=r"certified envelope \(20\.5\d*, 0\.5\).*certified rate 0\.5$"):
        bd.BoundContext(GAUSSIAN, 12.0, 15.0, 3, decay=(1e6, 0.3), model=chain)


class _BumpModel:
    """One channel with ||R[k]|| = 0.9^k except a bump to 0.03 at lag 80, inside the certified envelope 2 * 0.95^k."""

    def __init__(self):
        self.depths = []

    def autocov_stack(self, max_lag):
        self.depths.append(max_lag)
        norms = 0.9 ** np.arange(max_lag + 1.0)
        if max_lag >= 80:
            norms[80] = 0.03
        return norms.reshape(-1, 1, 1)

    def decay(self):
        return (2.0, 0.95)


def test_decay_check_extends_to_where_the_certified_envelope_takes_over():
    # 0.955^80 = 0.0251 < 0.03 < 2 * 0.95^80 = 0.0330; the certified envelope
    # stays below 0.955^k from lag ceil(log 2 / log(0.955 / 0.95)) = 133 on
    model = _BumpModel()
    with pytest.raises(ValueError, match="fails against the model at lag 80$"):
        bd.BoundContext(GAUSSIAN, 40.0, 40.0, 1, decay=(1.0, 0.955), model=model)
    assert model.depths == [64, 133]
    # a rate far enough above the certified one meets it before lag 64
    model = _BumpModel()
    bd.BoundContext(GAUSSIAN, 40.0, 40.0, 1, decay=(1.0, 0.99), model=model)
    assert model.depths == [64]


def test_decay_check_on_the_models_own_pair_reads_64_lags_once(monkeypatch):
    chain = example_state_space(0.5)
    # the model's cached values read their own stacks; only the decay check's are counted
    chain.phi_inf(), chain.r1_norm(), chain.decay()
    depths = []
    stack = chain.autocov_stack
    monkeypatch.setattr(type(chain), "autocov_stack", lambda self, max_lag: depths.append(max_lag) or stack(max_lag))
    bd.BoundContext.from_model(chain, GAUSSIAN)
    assert depths == [64]


def test_worst_total_condition_validated_by_simulation():
    # when the conjunction holds at (eps, delta), the doubled-accuracy event
    # {sup error > 2 eps} may occur with frequency at most delta (plus slack)
    model = WhiteNoise(1)
    ctx = bd.BoundContext.from_model(model, GAUSSIAN)
    spec, samples, eps, delta, trials = est.Bartlett(16), 4096, 2.0, 0.2, 200
    cert = bd.check_estimator_conditions(spec, samples, "worst_total", eps, delta, ctx)
    assert cert.holds
    errors = trial_errors(model, "gaussian", spec, samples, qf.frequency_grid(101), trials, 777, 0)
    exceedances = int((errors.max(axis=1) > 2.0 * eps).sum())
    assert exceedances / trials <= delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)


@pytest.mark.parametrize(
    "func, low, high, minimizer",
    [
        (lambda x: (x - 2.3) ** 2 + 1.0, 0.0, 10.0, 2.3),
        (lambda x: math.exp(x) - x / 3.0, 1.0, 4.0, 1.0),  # minimum at the lower bound
        (lambda x: -math.log(x), 0.5, 7.0, 7.0),  # minimum at the upper bound
    ],
)
def test_golden_minimum_finds_the_minimizer(func, low, high, minimizer):
    assert abs(bd._golden_minimum(func, low, high) - minimizer) <= 1e-6


def test_continuous_selection_beats_the_grid_and_its_bracket():
    for rho in (0.3, 0.7, 0.99):
        phi = (1.0 + rho) / (1.0 - rho)
        ctx = ctx_gauss(phi=phi, r1=phi, decay=(1.0, rho))
        for n in (64, 1000, 2064, 65536):

            def total(m):
                conc = bd.worst_case_error_bound(record(m / n, m), 0.05, ctx).value
                return conc + bd.bartlett_bias_closed_form(1.0, rho, m)

            selection = bd.optimize_bartlett_m(n, 0.05, ctx, divisors_only=False)
            grid = np.geomspace(1.0, n, 256)
            values = [total(m) for m in grid]
            assert all(selection.bound <= value for value in values)
            at = int(np.argmin(values))
            bracket = np.linspace(grid[max(at - 1, 0)], grid[min(at + 1, grid.size - 1)], 4097)
            assert all(selection.bound <= total(m) for m in bracket), (rho, n)


def test_optimizer_needs_decay():
    with pytest.raises(ValueError):
        bd.optimize_bartlett_m(256, 0.05, ctx_gauss())


def test_optimizer_rate_law():
    ctx = ctx_gauss(phi=(1.7 / 0.3), r1=(1.7 / 0.3), decay=(1.0, 0.7))
    ns = [2 ** k for k in range(9, 19)]
    blocks = [bd.optimize_bartlett_m(n, 0.05, ctx, divisors_only=False).block_length for n in ns]
    slope = np.polyfit(np.log(ns), np.log(blocks), 1)[0]
    assert 0.23 <= slope <= 0.43
