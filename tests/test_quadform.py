"""Tests for the generic quadratic-form machinery."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from specbound import bounds as bd
from specbound import estimators as est
from specbound import quadform as qf
from specbound.bounds import envelope_from_form
from specbound.constants import GAUSSIAN
from specbound.experiments import example_state_space
from specbound.signals import GeometricScalar, WhiteNoise

from conftest import centrosymmetric_blocks, longdouble_lag_sum


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20240311)


def _brute_expansion(data, form, frequency):
    """Independent oracle: sum of e^{-j2 pi s k} Y B[k] Y^T over all diagonals."""
    n = form.size
    y = data.values
    total = np.zeros((data.channels, data.channels), dtype=complex)
    for k in range(-(n - 1), n):
        dense = np.diag(np.diagonal(form.matrix, -k), -k)
        total += np.exp(-2j * np.pi * frequency * k) * (y @ dense @ y.T)
    return total


def test_one_by_one_spectral_norms_match_the_eigensolver_bit_for_bit():
    diagonal = np.array([-3.5, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 2.0], dtype=complex)
    diagonal[-1] += 1.5j  # eigvalsh reads only the real part of the diagonal
    for stack in (diagonal[:, None, None], diagonal.reshape(3, 3, 1, 1)):
        expected = np.abs(np.linalg.eigvalsh(stack)).max(-1)
        result = qf.hermitian_spectral_norms(stack)
        assert result.dtype == expected.dtype and result.shape == expected.shape
        assert result.tobytes() == expected.tobytes()


def test_identity_frequency_is_plain_quadratic_form(rng):
    data = qf.DataMatrix(rng.standard_normal((2, 6)))
    form = qf.QuadraticForm(rng.standard_normal((6, 6)))
    value = qf.evaluate_generic(data, form, 0.0)
    expected = data.values @ form.matrix @ data.values.T
    np.testing.assert_allclose(value, expected, atol=1e-12)
    assert np.abs(value.imag).max() < 1e-12


def test_hand_expanded_two_sample_case():
    # Y = [1, 1], A = ones/2, s = 1/4: value (2 + e^{j pi/2} + e^{-j pi/2}) / 2 = 1
    data = qf.DataMatrix([[1.0, 1.0]])
    form = qf.QuadraticForm(0.5 * np.ones((2, 2)))
    value = qf.evaluate_generic(data, form, 0.25)
    np.testing.assert_allclose(value, [[1.0]], atol=1e-12)


@pytest.mark.parametrize("channels,samples", [(1, 5), (2, 8), (3, 12)])
def test_generic_matches_diagonal_expansion(rng, channels, samples):
    data = qf.DataMatrix(rng.standard_normal((channels, samples)))
    form = qf.QuadraticForm(rng.standard_normal((samples, samples)))
    for frequency in (-0.5, -0.17, 0.0, 0.31, 0.5):
        fast = qf.evaluate_generic(data, form, frequency)
        brute = _brute_expansion(data, form, frequency)
        assert np.abs(fast - brute).max() < 1e-10


def test_estimate_is_hermitian_before_and_after_symmetrization(rng):
    data = qf.DataMatrix(rng.standard_normal((3, 10)))
    form = qf.QuadraticForm(rng.standard_normal((10, 10)))
    phase = np.exp(-2j * np.pi * 0.21 * np.arange(10))
    rotated = data.values * phase
    raw = rotated @ form.matrix @ rotated.conj().T
    assert np.linalg.norm(raw - raw.conj().T) <= 1e-12 * np.linalg.norm(raw)
    value = qf.evaluate_generic(data, form, 0.21)
    np.testing.assert_array_equal(value, value.conj().T)


def test_hermitian_part_of_a_stack_is_taken_per_matrix(rng):
    stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    expected = np.stack([qf.hermitian_part(matrix) for matrix in stack])
    assert qf.hermitian_part(stack).tobytes() == expected.tobytes()
    assert qf.hermitian_part(stack[None]).tobytes() == expected[None].tobytes()


def test_negative_frequency_conjugates_the_estimate(rng):
    data = qf.DataMatrix(rng.standard_normal((2, 9)))
    form = qf.QuadraticForm(rng.standard_normal((9, 9)))
    plus = qf.evaluate_generic(data, form, 0.2)
    minus = qf.evaluate_generic(data, form, -0.2)
    np.testing.assert_allclose(minus, plus.conj(), atol=1e-12)


def test_dimension_mismatch_and_bad_data_raise(rng):
    form = qf.QuadraticForm(np.eye(4))
    with pytest.raises(ValueError):
        qf.evaluate_generic(qf.DataMatrix(np.ones((1, 5))), form, 0.0)
    with pytest.raises(ValueError):
        qf.DataMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        qf.QuadraticForm(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("trial", [0, 2])
def test_batch_data_rejects_a_non_finite_entry_in_any_trial(bad, trial):
    paths = np.ones((3, 2, 5))
    paths[trial, 1, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        list(qf.DataMatrix.batch(paths))


def test_batch_data_blocks_are_read_only_views_of_the_frozen_batch(rng):
    paths = rng.standard_normal((4, 2, 7))
    expected = paths.copy()
    blocks = list(qf.DataMatrix.batch(paths))
    assert not paths.flags.writeable
    assert len(blocks) == 4
    for data, path in zip(blocks, expected):
        assert isinstance(data, qf.DataMatrix)
        assert (data.channels, data.samples) == (2, 7)
        assert not data.values.flags.writeable
        assert np.shares_memory(data.values, paths)
        assert data.values.tobytes() == path.tobytes()
    for shape in [(2, 7), (0, 2, 7), (4, 2, 7, 1)]:
        with pytest.raises(ValueError):
            list(qf.DataMatrix.batch(np.ones(shape)))


def test_complex_input_is_rejected_not_truncated():
    # spectral norm 3; truncated to its real part it was the identity, norm 1
    hermitian = np.array([[1, 2j], [-2j, 1]])
    assert np.abs(np.linalg.eigvalsh(hermitian)).max() == pytest.approx(3.0)
    # a complex dtype is rejected even with every imaginary part zero
    for values in (hermitian, hermitian.real.astype(complex), hermitian.tolist()):
        with pytest.raises(ValueError, match="coefficient matrix must be real"):
            qf.QuadraticForm(values)
        with pytest.raises(ValueError, match="data must be real"):
            qf.DataMatrix(values)
        with pytest.raises(ValueError, match="data must be real"):
            next(qf.DataMatrix.batch(np.asarray(values)[None]))


def _layouts(a):
    """``a`` as C, Fortran, strided, reversed, read-only and broadcast inputs of one shape."""
    n = a.shape[0]
    padded = np.zeros((2 * n, 3 * n))
    padded[::2, ::3] = a
    read_only = a.view()
    read_only.flags.writeable = False
    return {
        "c_order": a,
        "fortran_order": np.asfortranarray(a),
        "strided": padded[::2, ::3],
        "reversed": a[::-1, ::-1],
        "read_only": read_only,
        "broadcast": np.broadcast_to(a[0], (n, n)),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 259, 1024])
def test_quadratic_form_copy_has_the_bits_of_the_whole_matrix_sum(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    for layout, values in _layouts(a).items():
        form = qf.QuadraticForm(values)
        expected = 0.5 * (values + values.T)
        assert form.matrix.tobytes() == expected.tobytes(), layout
        assert form.matrix.flags.c_contiguous and not form.matrix.flags.writeable
        assert not np.shares_memory(form.matrix, values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quadratic_form_rejects_a_non_finite_entry_in_any_view(bad):
    n = 129
    a = np.ones((n, n))
    a[n - 1, 5] = bad
    views = _layouts(a)
    del views["broadcast"]  # its one row holds no bad entry
    views["broadcast_row"] = np.broadcast_to(a[n - 1], (n, n))
    views["toeplitz"] = est._toeplitz(np.concatenate([a[n - 1], a[0, 1:]]))
    for layout, values in views.items():
        with pytest.raises(ValueError, match="non-finite"):
            qf.QuadraticForm(values)


@pytest.mark.parametrize("n, i, j", [(2, 0, 1), (129, 5, 128)], ids=["one_tile", "off_diagonal_tile"])
def test_quadratic_form_rejects_a_symmetric_sum_that_overflows(n, i, j):
    # every entry is finite, but a_ij + a_ji passes the largest double
    a = np.ones((n, n))
    a[i, j] = a[j, i] = 1.7e308
    with pytest.raises(ValueError, match="overflows when symmetrized"):
        qf.QuadraticForm(a)
    with pytest.raises(ValueError, match="overflows when symmetrized"):
        qf.QuadraticForm(np.full((n, n), 1.7e308))
    a[i, j] = a[j, i] = 0.8e308  # a sum of 1.6e308 is finite, and so is its half
    assert qf.QuadraticForm(a).matrix[i, j] == 0.8e308


def test_quadratic_form_symmetrizes_and_bounds_norms(rng):
    raw = rng.standard_normal((7, 7))
    form = qf.QuadraticForm(raw)
    np.testing.assert_array_equal(form.matrix, form.matrix.T)
    assert form.spectral_norm <= form.frobenius_norm + 1e-15


def test_diagonal_profile_constant_matrix():
    n = 6
    form = qf.QuadraticForm(np.full((n, n), 1.0 / n))
    stats = form.diagonal_stats
    for k in range(-(n - 1), n):
        np.testing.assert_allclose(qf.diagonal_profile(form, k), np.full(n - abs(k), 1.0 / n))
        assert stats.sup_norms[abs(k)] == pytest.approx(1.0 / n)


def test_diagonal_profile_block_diagonal_example():
    # two 2x2 blocks of ones, scaled by 1/4: first subdiagonal reads (1/4, 0, 1/4)
    block = np.ones((2, 2))
    matrix = 0.25 * np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
    form = qf.QuadraticForm(matrix)
    np.testing.assert_array_equal(qf.diagonal_profile(form, 1), [0.25, 0.0, 0.25])
    assert form.diagonal_stats.sup_norms[1] == 0.25


def _assert_stats_are_the_embedding_norms(form):
    """||B[k]||_2 = sup_norms[|k|], B[k] holding d[k] alone."""
    n = form.size
    stats = form.diagonal_stats
    for k in range(-(n - 1), n):
        dense = np.diag(np.diagonal(form.matrix, -k), -k)
        assert stats.sup_norms[abs(k)] == pytest.approx(np.linalg.norm(dense, 2), rel=1e-13, abs=0.0)


def test_profile_norms_match_dense_embedding(rng):
    _assert_stats_are_the_embedding_norms(qf.QuadraticForm(rng.standard_normal((8, 8))))


def test_profiles_reassemble_the_matrix(rng):
    form = qf.QuadraticForm(rng.standard_normal((9, 9)))
    total = sum(np.diag(qf.diagonal_profile(form, k), -k) for k in range(-8, 9))
    np.testing.assert_array_equal(total, form.matrix)
    assert not qf.diagonal_profile(form, 2).flags.writeable


def test_out_of_range_offset_raises():
    form = qf.QuadraticForm(np.eye(3))
    for offset in (3, -3):
        with pytest.raises(ValueError, match="smaller than the size 3"):
            qf.diagonal_profile(form, offset)


def test_truncation_width_values():
    assert qf.QuadraticForm(np.zeros((3, 3))).truncation_width == 0
    assert qf.QuadraticForm(np.eye(3)).truncation_width == 1
    banded = np.eye(5) + np.diag(np.ones(3), 2)
    assert qf.QuadraticForm(banded).truncation_width == 3


# the block-averaged, windowed and segment-averaged families at each size the
# per-diagonal statistics are checked at; both periodograms join them
FAMILY_SPECS = {
    1: (est.BlackmanTukey(1), est.Bartlett(1), est.Welch(1, 1, "rectangular")),
    2: (est.BlackmanTukey(2), est.Bartlett(2), est.Welch(2, 1, "rectangular")),
    7: (est.BlackmanTukey(4, "hann"), est.Bartlett(7), est.Welch(3, 2, "hamming")),
    64: (est.BlackmanTukey(20, "hann"), est.Bartlett(16), est.Welch(16, 8, "hann")),
    257: (est.BlackmanTukey(40, "blackman"), est.Bartlett(257), est.Welch(33, 28, "hann")),
}
FAMILY_FORMS = [
    pytest.param(spec, n, id=f"{spec.kind}-{n}")
    for n, specs in FAMILY_SPECS.items()
    for spec in (est.BiasedPeriodogram(), est.UnbiasedPeriodogram()) + specs
]


def _banded(rng, size, width):
    """Random symmetric matrix whose diagonals vanish from ``width`` outward."""
    lower = np.tril(rng.standard_normal((size, size)))
    lower[np.subtract.outer(np.arange(size), np.arange(size)) >= width] = 0.0
    return lower + np.tril(lower, -1).T


def _special_matrices():
    rng = np.random.default_rng(77)
    zero_interior = _banded(rng, 9, 5)
    for k in (-2, 2):
        zero_interior[np.eye(9, k=k, dtype=bool)] = 0.0
    # outermost nonzero diagonal sums to exactly 0.0 in any order
    cancelling = _banded(rng, 9, 5)
    for k in (-5, 5):
        cancelling[np.eye(9, k=k, dtype=bool)] = [0.75, -0.5, 0.25, -0.5]
    return {
        "dense": _banded(rng, 12, 12),
        "one_by_one": np.array([[-2.5]]),
        "zero_interior_diagonal": zero_interior,
        "cancelling_outer_diagonal": cancelling,
        "zero": np.zeros((6, 6)),
    }


def _per_offset_reference(form):
    """Sums, sup norms, squared l2 norms, l1 norms and truncation width, one offset at a time."""
    sums, sups, squares, l1, width = [], [], [], [], 0
    for k in range(form.size):
        entries = np.diagonal(form.matrix, -k)
        np.testing.assert_array_equal(entries, np.diagonal(form.matrix, k))
        sums.append(entries.sum())
        sups.append(np.abs(entries).max())
        squares.append(float(np.dot(entries, entries)))
        l1.append(np.abs(entries).sum())
        if np.any(entries != 0.0):
            width = k + 1
    return np.array(sums), np.array(sups), np.array(squares), np.array(l1), width


def _assert_diagonal_statistics_match(form):
    sums, sups, squares, l1, width = _per_offset_reference(form)
    stats = form.diagonal_stats
    # any summation order lands within a few rounding units of the l1 norm
    assert np.all(np.abs(stats.sums - sums) <= 1e-13 * l1)
    np.testing.assert_array_equal(stats.sup_norms, sups)
    assert form.truncation_width == width
    n = form.size
    lags = np.arange(-(n - 1), n)
    expected = np.array([np.trace(form.matrix, offset=-k) for k in lags])
    assert np.all(np.abs(qf.bias_coefficients(form).on_lags(n) - expected) <= 1e-13 * l1[np.abs(lags)])
    # no per-diagonal norm passes the envelope of the two matrix norms
    envelope = max(form.spectral_norm, form.frobenius_norm ** 2, sups.max(), squares.max())
    assert envelope_from_form(form) == pytest.approx(envelope, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("spec,n", FAMILY_FORMS)
def test_diagonal_statistics_of_every_family_match_per_offset_loops(spec, n):
    _assert_diagonal_statistics_match(est.build_matrix(spec, n))


# a dense 2-norm per offset: the sizes up to 64 keep its cost small
@pytest.mark.parametrize("spec,n", [form for form in FAMILY_FORMS if form.values[1] <= 64])
def test_diagonal_stats_of_every_family_are_the_embedding_norms(spec, n):
    _assert_stats_are_the_embedding_norms(est.build_matrix(spec, n))


@pytest.mark.parametrize(
    "name,width",
    [("dense", 12), ("one_by_one", 1), ("zero_interior_diagonal", 5), ("cancelling_outer_diagonal", 6), ("zero", 0)],
)
def test_diagonal_statistics_of_random_matrices_match_per_offset_loops(name, width):
    form = qf.QuadraticForm(_special_matrices()[name])
    _assert_diagonal_statistics_match(form)
    assert form.truncation_width == width


def test_generic_grid_stays_in_bounded_slabs_and_matches_a_per_frequency_loop():
    rng = np.random.default_rng(528)
    n = 528
    form = qf.QuadraticForm(rng.standard_normal((n, n)))
    data = qf.DataMatrix(rng.standard_normal((3, n)))
    grid = qf.frequency_grid(1025, full_range=True)
    tracemalloc.start()
    try:
        estimate = qf.evaluate_generic_grid(data, form, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all 1025 rotated rows at once would take about 26 MB
    assert peak < form.matrix.nbytes + (16 << 20)
    matrix = form.matrix.astype(complex)
    expected = []
    for frequency in grid:
        rotated = data.values * np.exp(-2j * np.pi * frequency * np.arange(n))
        expected.append(rotated @ matrix @ rotated.conj().T)
    expected = np.array(expected)
    assert np.abs(estimate.matrices - expected).max() <= 1e-12 * np.abs(expected).max()


def test_bias_coefficients_ones_matrix():
    form = qf.QuadraticForm(np.full((4, 4), 0.25))
    coeffs = qf.bias_coefficients(form)
    lags = coeffs.on_lags(5)
    assert lags[1 + 4] == pytest.approx(0.75)
    assert lags[0 + 4] == pytest.approx(1.0)
    assert lags[4 + 4] == 0.0


def test_bias_equals_sum_of_profile_and_is_even(rng):
    form = qf.QuadraticForm(rng.standard_normal((7, 7)))
    coeffs = qf.bias_coefficients(form)
    lags = coeffs.on_lags(7)
    for k in range(-6, 7):
        assert lags[k + 6] == pytest.approx(np.diagonal(form.matrix, -k).sum(), abs=1e-13)
        assert lags[k + 6] == pytest.approx(lags[-k + 6])


def test_expected_estimate_white_noise_is_flat(rng):
    form = qf.QuadraticForm(rng.standard_normal((6, 6)))
    coeffs = qf.bias_coefficients(form)
    grid = qf.frequency_grid(7, full_range=True)
    mean = qf.expected_estimate(coeffs, WhiteNoise(1), grid)
    for idx in range(grid.size):
        np.testing.assert_allclose(mean[idx], [[coeffs.on_lags(1)[0]]], atol=1e-12)


def test_expected_estimate_block_average_closed_form():
    # diagonal sums 1 - |k|/m on the geometric model, summed directly
    from specbound.estimators import Bartlett, closed_form_bias

    model = GeometricScalar(0.5)
    m, n = 4, 16
    coeffs = closed_form_bias(Bartlett(m), n)
    grid = np.array([0.0, 0.125, 0.4])
    mean = qf.expected_estimate(coeffs, model, grid)
    for idx, s in enumerate(grid):
        expected = sum(
            (1.0 - abs(k) / m) * 0.5 ** abs(k) * np.exp(-2j * np.pi * s * k)
            for k in range(-(m - 1), m)
        )
        np.testing.assert_allclose(mean[idx], [[expected]], atol=1e-12)


def test_expected_estimate_matches_monte_carlo_mean():
    # independent estimator implementation straight from the block-average
    # definition, averaged over 20000 paths, against the analytic mean
    from specbound.signals import sample_geometric_paths

    rho, m, blocks = 0.3, 8, 8
    samples = m * blocks
    trials = 20_000
    model = GeometricScalar(rho)
    grid = np.array([0.0, 0.13, 0.37])
    coeffs_values = np.where(np.arange(samples) < m, 1.0 - np.arange(samples) / m, 0.0)
    expected = qf.expected_estimate(qf.BiasCoefficients(coeffs_values), model, grid)[:, 0, 0]
    paths = sample_geometric_paths(rho, samples, trials, "gaussian", seed=606)
    segments = paths.reshape(trials, blocks, m)
    phases = np.exp(-2j * np.pi * np.outer(np.arange(m), grid))
    transforms = segments @ phases
    per_trial = (np.abs(transforms) ** 2).sum(axis=1) / samples
    mean = per_trial.mean(axis=0)
    spread = per_trial.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(mean - expected.real) <= 3.0 * spread)


def test_expected_estimate_all_ones_is_truncated_transform():
    model = GeometricScalar(0.4)
    half = 8
    coeffs = qf.BiasCoefficients(np.ones(half))
    grid = np.array([0.05, 0.3])
    mean = qf.expected_estimate(coeffs, model, grid)
    for idx, s in enumerate(grid):
        expected = sum(0.4 ** abs(k) * np.exp(-2j * np.pi * s * k) for k in range(-(half - 1), half))
        np.testing.assert_allclose(mean[idx], [[expected]], atol=1e-12)


def test_expected_estimate_needs_analytic_model(rng):
    coeffs = qf.BiasCoefficients(np.ones(2))
    with pytest.raises(TypeError):
        qf.expected_estimate(coeffs, object(), [0.0])


def test_exact_bias_sup_pure_truncation():
    # all-ones diagonal sums leave only the tail: exactly 2 rho^H / (1 - rho)
    model = GeometricScalar(0.3)
    half = 6
    coeffs = qf.BiasCoefficients(np.ones(half))
    value = qf.exact_bias_sup(coeffs, model, qf.frequency_grid(33))
    assert value == pytest.approx(2.0 * 0.3 ** half / 0.7, rel=1e-12)


def test_exact_bias_sup_single_point_white_noise():
    coeffs = qf.BiasCoefficients(np.array([0.25, 0.0]))
    value = qf.exact_bias_sup(coeffs, WhiteNoise(1), np.array([0.0]))
    assert value == pytest.approx(0.75)


# Welch 32/16 at the first study's sizes (H = N), the three-channel chain at
# H = 96, 144 and 528, and a slowly decaying model whose weighted covariances
# reach past lag 256: each side's H lags take one product up to 256 lags and
# two stages beyond
LAG_SUM_CASES = [(GeometricScalar(0.3), est.Welch(32, 16), n) for n in (144, 272, 528, 1040, 2064)] + [
    (example_state_space(), est.Bartlett(8), 96),
    (example_state_space(), est.Welch(32, 16), 144),
    (example_state_space(), est.Welch(32, 16), 528),
    (GeometricScalar(0.99), est.Welch(32, 16), 2064),
    (GeometricScalar(0.99), est.Bartlett(512), 1024),
]


@pytest.mark.parametrize("full_range", [False, True], ids=["half_range", "full_range"])
@pytest.mark.parametrize(
    "model, spec, num_samples",
    LAG_SUM_CASES,
    ids=[f"{getattr(model, 'rho', 'chain')}-{spec.kind}-{n}" for model, spec, n in LAG_SUM_CASES],
)
def test_lag_sums_match_a_long_double_sum(model, spec, num_samples, full_range):
    # 37 points, spacing 1/72 or 1/36: s * 256 is not a whole number of turns,
    # so the two-stage outer table is not all ones
    grid = qf.frequency_grid(37, full_range)
    coeffs = est.closed_form_bias(spec, num_samples)
    head = model.autocov_stack(coeffs.half_width - 1)
    mean = qf.expected_estimate(coeffs, model, grid)
    reference = longdouble_lag_sum(head, coeffs.values, grid)
    assert float(np.abs(mean - reference).max()) <= 1e-14 * float(np.abs(reference).max())
    finite = qf.hermitian_part(longdouble_lag_sum(head, 1.0 - coeffs.values, grid).astype(complex))
    sup = float(np.abs(np.linalg.eigvalsh(finite)).max()) + qf.envelope_tail(*model.decay(), coeffs.half_width)
    assert qf.exact_bias_sup(coeffs, model, grid) == pytest.approx(sup, rel=1e-14)


@pytest.mark.parametrize("full_range", [False, True], ids=["half_range", "full_range"])
@pytest.mark.parametrize(
    "spec, channels, num_samples",
    [(est.UnbiasedPeriodogram(), 1, 16384), (est.BlackmanTukey(300, "hann"), 3, 65536)],
    ids=["unbiased_periodogram16384", "blackman_tukey300"],
)
def test_lag_families_match_a_long_double_sum(spec, channels, num_samples, full_range):
    # the estimate's own float64 lag products, summed in long double; both
    # sides of either family (N and 300 lags) take the two-stage transform
    data = qf.DataMatrix(np.random.default_rng(channels).standard_normal((channels, num_samples)))
    grid = qf.frequency_grid(37, full_range)
    if isinstance(spec, est.UnbiasedPeriodogram):
        head, weights = est._acs_head(data, num_samples - 1, biased=False), np.ones(num_samples)
    else:
        head, weights = est._acs_head(data, spec.half_width - 1, biased=True), spec.weights()[spec.half_width - 1 :]
    reference = longdouble_lag_sum(head, weights, grid)
    fast = est.evaluate_fast(spec, data, grid).matrices
    assert float(np.abs(fast - reference).max()) <= 1e-10 * float(np.abs(reference).max())


def test_exact_bias_sup_memory_stays_flat():
    coeffs = est.closed_form_bias(est.Welch(32, 16), 16384)
    tracemalloc.start()
    try:
        qf.exact_bias_sup(coeffs, GeometricScalar(0.3), qf.frequency_grid(101))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a one-product (grid, 2H - 1) phase matrix alone is 53 MB
    assert peak < 32 << 20


def test_frequency_grid_endpoints():
    grid = qf.frequency_grid(101)
    assert grid[0] == 0.0 and grid[-1] == 0.5 and grid.size == 101
    full = qf.frequency_grid(11, full_range=True)
    assert full[0] == -0.5 and full[-1] == 0.5
    assert qf.frequency_grid(1).tolist() == [0.0]
    with pytest.raises(ValueError):
        qf.frequency_grid(0)


def test_spectral_estimate_validation_and_sup(rng):
    grid = qf.frequency_grid(5)
    mats = np.stack([np.eye(2, dtype=complex) * (i + 1) for i in range(5)])
    estimate = qf.SpectralEstimate(grid, mats)
    assert estimate.sup_norm() == pytest.approx(5.0)
    with pytest.raises(ValueError):
        qf.SpectralEstimate(grid, mats[:3])


def _dense_spectral_norm(matrix):
    return float(np.abs(np.linalg.eigvalsh(matrix)).max())


def _family_specs(n):
    """The five families, with Bartlett and Welch segments that tile N."""
    if n % 2:
        segmented = (est.Bartlett(15), est.Welch(15, 8, "hann"))
    else:
        segmented = (est.Bartlett(16), est.Welch(32, 16, "hann"))
    return (est.BiasedPeriodogram(), est.UnbiasedPeriodogram(), est.BlackmanTukey(32, "hann")) + segmented


@pytest.mark.parametrize("n", [255, 256, 1024])
def test_family_spectral_norms_and_verdicts_match_the_dense_eigensolve(n):
    ctx = bd.BoundContext.from_model(GeometricScalar(0.3), GAUSSIAN)
    for spec in _family_specs(n):
        form = est.build_matrix(spec, n)
        dense = _dense_spectral_norm(form.matrix)
        assert form.spectral_norm == pytest.approx(dense, rel=1e-13, abs=0.0)
        dense_inputs = qf.CertificateParams(dense, form.frobenius_norm ** 2, form.truncation_width)
        for eps in (0.05, 0.5, 5.0):
            for part in bd.CONDITION_PARTS:
                split = bd.check_conditions(part, eps, 0.05, ctx, form=form)
                oracle = bd.check_conditions(part, eps, 0.05, ctx, form=form, params=dense_inputs)
                assert split.holds == oracle.holds, (spec, part, eps)


@pytest.mark.parametrize("n, cross", [(16, False), (17, False), (17, True)])
def test_split_adds_the_mirror_residual_to_the_centrosymmetric_norm(rng, n, cross):
    # nonnegative, so the centrosymmetric part takes the split
    raw = np.abs(rng.standard_normal((n, n)))
    symmetric = raw + raw.T
    centro = symmetric + symmetric[::-1, ::-1]
    skew = symmetric - symmetric[::-1, ::-1]
    if cross:  # only the middle row and column, which the top half holds once
        mask = np.zeros((n, n), dtype=bool)
        mask[n // 2] = mask[:, n // 2] = True
        skew = np.where(mask, skew, 0.0)
    # half the gate: ||A - JAJ||_F / 2 = ||perturbation||_F
    scale = 0.5 * qf._RESIDUAL_GATE * np.linalg.norm(centro) / np.linalg.norm(skew)
    form = qf.QuadraticForm(centro + scale * skew)
    mirrored = form.matrix[::-1, ::-1]
    residual = 0.5 * np.linalg.norm(form.matrix - mirrored)
    gap = form.spectral_norm - _dense_spectral_norm(0.5 * (form.matrix + mirrored))
    assert gap == pytest.approx(residual, rel=1e-2)


def test_family_forms_take_their_spectral_norm_route(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(matrix):
        sizes.append(matrix.shape[-1])
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    for n in (255, 256, 1024):
        for spec in _family_specs(n):
            sizes.clear()
            est.build_matrix(spec, n).spectral_norm
            if isinstance(spec, est.BiasedPeriodogram):
                assert sizes == [1], spec  # rank one: one 1 x 1 eigensolve
            elif isinstance(spec, (est.Bartlett, est.Welch)):
                assert sizes == [spec.segments(n)], spec  # rank K <= N/8: one K x K eigensolve
            else:
                assert sizes == [n - n // 2], spec  # nonnegative centrosymmetric: the first half-size block
        sizes.clear()
        # a signed window leaves the centrosymmetric part with negative entries: one dense eigensolve
        est.build_matrix(est.BlackmanTukey(3, [0.2, -0.5, 1.0, -0.5, 0.2]), n).spectral_norm
        assert sizes == [n]
    sizes.clear()
    qf.QuadraticForm(np.random.default_rng(5).standard_normal((9, 9))).spectral_norm
    assert sizes == [9]


@pytest.mark.parametrize("n", [255, 256, 1024, 1025])
def test_first_block_norm_of_the_estimator_forms_equals_the_two_block_norm(n):
    specs = [est.UnbiasedPeriodogram()]
    specs += [est.BlackmanTukey(width, kind) for kind in est.WINDOW_KINDS for width in (8, 32)]
    for spec in specs:
        form = est.build_matrix(spec, n)
        assert np.array_equal(form.matrix, form.matrix[::-1, ::-1]), spec  # no mirror residual
        first, second = centrosymmetric_blocks(form.matrix)
        both = np.concatenate([np.linalg.eigvalsh(first), np.linalg.eigvalsh(second)])
        assert form.spectral_norm == float(np.abs(both).max()), spec


def test_a_form_whose_squares_pass_the_largest_double_keeps_finite_norms():
    form = est.build_matrix(est.BlackmanTukey(2, [1e160] * 3), 16)  # 46 entries of 6.25e158
    ctx = bd.BoundContext.from_model(GeometricScalar(0.3), GAUSSIAN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert form.frobenius_norm == pytest.approx(6.25e158 * math.sqrt(46.0), rel=1e-15)
        assert form.spectral_norm == pytest.approx(_dense_spectral_norm(form.matrix), rel=1e-13)
        params = form.certificate_params
        # the squares themselves pass the largest double
        assert params.frobenius_sq == math.inf
        verdicts = [bd.check_conditions(part, 0.5, 0.05, ctx, form=form).holds for part in bd.CONDITION_PARTS]
    assert len(verdicts) == 5 and all(type(holds) is bool for holds in verdicts), verdicts


def _traced_peak(compute) -> int:
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [est.Bartlett(16), est.Welch(32, 16, "hann")])
def test_low_rank_route_allocates_no_more_than_the_split(spec):
    form = est.build_matrix(spec, 1024)
    matrix, frobenius = form.matrix, form.frobenius_norm
    split = _traced_peak(lambda: qf._centrosymmetric_norm(matrix, frobenius))
    low_rank = _traced_peak(lambda: form.spectral_norm)
    assert qf._low_rank_norm(matrix, frobenius) == form.spectral_norm
    assert low_rank <= split, (low_rank, split)
